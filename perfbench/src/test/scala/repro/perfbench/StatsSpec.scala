package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("nearest-rank percentile") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs, 0.5) == 50.0)
    assert(Stats.percentile(xs, 0.9) == 90.0)
    assert(Stats.percentile(Seq(3.0, 1.0, 2.0), 0.5) == 2.0)
  }

  test("a percentile is reported only with at least ten samples beyond it") {
    assert(Stats.samplesNeeded(0.5) == 20)
    assert(Stats.samplesNeeded(0.9) == 100)
    val xs = (1 to 99).map(_.toDouble)
    assert(Stats.beyond(99, 0.9) == 9)
    assert(Stats.reportablePercentile(xs, 0.9).isEmpty)
    assert(Stats.reportablePercentile(xs :+ 100.0, 0.9).contains(90.0))
    assert(Stats.reportablePercentile((1 to 19).map(_.toDouble), 0.5).isEmpty)
    assert(Stats.reportablePercentile((1 to 20).map(_.toDouble), 0.5).contains(10.0))
  }

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(5.0, 1.0, 3.0)) == 3.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("events per second arithmetic") {
    assert(Stats.eventsPerSecond(1000000L, 500000000L) == 2000000.0)
    assert(Stats.eventsPerSecond(1L << 20, 1000000000L) == 1048576.0)
    intercept[IllegalArgumentException](Stats.eventsPerSecond(1L, 0L))
  }

  test("relative agreement rule") {
    assert(Stats.closeRel(1000.0, 1000.0 + 1e-7))
    assert(!Stats.closeRel(1000.0, 1000.001))
    assert(Stats.closeRel(0.0, 1e-10)) // absolute floor of 1e-9 near zero
  }
}
