package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

/** The traced replay must measure the same program as the driver operator:
  * its estimates equal `Qlove`'s within the batch specs' 1e-9 relative rule.
  */
class ReplaySpec extends AnyFunSuite {
  private val events = 1 << 18

  Workload.All.foreach { w =>
    test(s"traced replay equals Qlove on ${w.name}") {
      val data = w.data(5L, events)
      val want = DriverPaths.driverPass(w, data).evals
      val tr = new Tracer
      val got = DriverPaths.tracedReplay(w, data, tr)
      assert(got.length == want.length && want.nonEmpty)
      got.indices.foreach { k =>
        w.phis.indices.foreach { i =>
          assert(Stats.closeRel(got(k)(i), want(k)(i)), s"evaluation $k φ=${w.phis(i)}")
        }
      }
      assert(tr.counter("seal.count") == events / w.period)
      assert(tr.summary("evaluate")._1 == want.length)
    }
  }

  test("the few-k workload answers with every estimator branch") {
    val w = Workload.BurstFewK
    val tr = new Tracer
    DriverPaths.tracedReplay(w, w.data(5L, events), tr)
    assert(tr.counter("evaluate.branch_mean") > 0)
    assert(tr.counter("evaluate.branch_topk") > 0)
    assert(tr.counter("evaluate.branch_samplek") > 0)
    assert(tr.counter("burst.flagged") > 0)
  }

  test("the Level-2 workload never leaves the mean branch") {
    val w = Workload.L2
    val tr = new Tracer
    DriverPaths.tracedReplay(w, w.data(5L, events), tr)
    assert(tr.counter("evaluate.branch_topk") == 0 && tr.counter("evaluate.branch_samplek") == 0)
    assert(tr.counter("burst.tests") == 0)
  }

  test("the Level-1 aggregate called directly matches the driver's Level 1") {
    Workload.All.foreach { w =>
      val data = w.data(5L, events)
      val got = DriverPaths.tracedUdaf(w, data, new Tracer)
      val want = DriverPaths.subWindowQuantiles(w, data)
      assert(got.length == want.length)
      got.indices.foreach(k => assert(got(k).sameElements(want(k)), s"${w.name} sub-window $k"))
    }
  }
}
