package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class GateSpec extends AnyFunSuite {

  test("missing, extra and unequal evaluations all count as failed") {
    val g = new Gate
    val want = Map(1L -> Seq(1.0, 2.0), 2L -> Seq(3.0, 4.0), 3L -> Seq(5.0, 6.0))
    val got = Map(1L -> Seq(1.0, 2.0), 2L -> Seq(3.0, 4.5), 4L -> Seq(7.0, 8.0))
    g.check("p", got, want, exact = true)
    assert(g.attempted == 4)
    assert(g.failed == 3)
    assert(g.record("p") == Map("attempted" -> 4L, "missing" -> 1L, "extra" -> 1L, "unequal" -> 1L))
  }

  test("relative comparison tolerates 1e-9, exact comparison does not") {
    val want = Map(7L -> Seq(1000.0))
    val got = Map(7L -> Seq(1000.0 + 1e-8))
    val rel = new Gate
    rel.check("batch", got, want, exact = false)
    assert(rel.failed == 0)
    val exact = new Gate
    exact.check("stream", got, want, exact = true)
    assert(exact.failed == 1)
  }
}
