package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class ArgsSpec extends AnyFunSuite {

  test("parses the benchmark command line") {
    val a = Main.parseArgs(Array("--workload", "netmon-l2", "--seed", "3", "--seconds", "20", "--trace", "1"))
    assert(a.workload == Workload.L2 && a.seed == 3L && a.seconds == 20 && a.trace)
  }

  test("rejects unknown workloads and malformed options") {
    def bad(args: String*) = intercept[IllegalArgumentException](Main.parseArgs(args.toArray))
    bad("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    bad("--workload", "netmon-l2", "--seed", "1", "--seconds", "1", "--trace", "2")
    bad("--workload", "netmon-l2", "--seed", "1", "--seconds", "0", "--trace", "0")
    bad("--workload", "netmon-l2", "--seed", "1", "--trace", "0")
    bad("--workload", "netmon-l2", "--seed", "1", "--seconds", "1", "--trace", "0", "--x", "1")
  }
}
