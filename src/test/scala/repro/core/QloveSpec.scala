package repro.core

import org.scalatest.funsuite.AnyFunSuite

class QloveSpec extends AnyFunSuite {
  private val phis = Array(0.5, 0.9, 0.99)

  test("rejects window not divisible by period") {
    intercept[IllegalArgumentException](
      new Qlove(100, 30, phis, FewKConfig.disabled(phis)))
  }

  test("rejects mismatched FewKConfig") {
    intercept[IllegalArgumentException](
      new Qlove(100, 50, phis, FewKConfig.disabled(Array(0.5))))
  }

  test("rejects negative quantizeDigits") {
    intercept[IllegalArgumentException](
      new Qlove(100, 50, phis, FewKConfig.disabled(phis), quantizeDigits = -1))
  }

  test("tumbling window (N = P) equals exact sub-window quantiles") {
    val rnd = new scala.util.Random(1)
    val q = new Qlove(1000, 1000, phis, FewKConfig.disabled(phis), quantizeDigits = 0)
    val data = Array.fill(1000)(rnd.nextInt(100).toDouble)
    data.foreach(q.insert)
    assert(q.windowFull)
    val got = q.evaluate()
    val want = phis.map(Stat.exactQuantile(data, _))
    assert(got.sameElements(want))
  }

  test("evaluate before a full window fails") {
    val q = new Qlove(100, 50, phis, FewKConfig.disabled(phis))
    (1 to 50).foreach(i => q.insert(i.toDouble))
    assert(!q.windowFull)
    intercept[IllegalArgumentException](q.evaluate())
  }

  test("Level-2 estimate is the mean of sub-window quantiles") {
    // two sub-windows of constant values 10 and 20 -> every quantile = 15
    val q = new Qlove(20, 10, Array(0.5, 0.99), FewKConfig.disabled(Array(0.5, 0.99)), 0)
    (1 to 10).foreach(_ => q.insert(10.0))
    (1 to 10).foreach(_ => q.insert(20.0))
    assert(q.evaluate().sameElements(Array(15.0, 15.0)))
  }

  test("sliding deaccumulates the expired sub-window summary") {
    val q = new Qlove(20, 10, Array(0.5), FewKConfig.disabled(Array(0.5)), 0)
    (1 to 10).foreach(_ => q.insert(10.0))
    (1 to 10).foreach(_ => q.insert(20.0))
    assert(q.evaluate()(0) == 15.0)
    (1 to 10).foreach(_ => q.insert(40.0))
    assert(q.evaluate()(0) == 30.0) // (20 + 40) / 2, the 10s expired
  }

  test("quantization is applied to Level-1 values by default") {
    val q = new Qlove(10, 10, Array(0.5), FewKConfig.disabled(Array(0.5)))
    (1 to 10).foreach(_ => q.insert(123456.0))
    assert(q.evaluate()(0) == 123000.0)
  }

  test("quantizeDigits = 0 disables quantization") {
    val q = new Qlove(10, 10, Array(0.5), FewKConfig.disabled(Array(0.5)), 0)
    (1 to 10).foreach(_ => q.insert(123456.0))
    assert(q.evaluate()(0) == 123456.0)
  }

  test("estimate tracks exact quantiles closely on i.i.d. normal data") {
    val q = new Qlove(8192, 1024, phis, FewKConfig.disabled(phis))
    val data = Array.tabulate(8192)(i =>
      1e6 + 5e4 * Stat.inverseNormalCdf(Stat.uniform(5, i)))
    data.foreach(q.insert)
    val got = q.evaluate()
    val want = phis.map(Stat.exactQuantile(data, _))
    phis.indices.foreach { i =>
      val rel = math.abs(got(i) - want(i)) / want(i)
      assert(rel < 0.01, s"phi=${phis(i)} rel=$rel")
    }
  }

  test("top-k merging answers exactly with full-pool fraction") {
    // N=1000, P=100, phi=0.99 -> depth 10; fraction 1.0 caches the pool
    val ph = Array(0.99)
    val cfg = FewKConfig.topOnly(1000, 100, ph, 1.0)
    assert(cfg.topEnabled(0)) // P(1-phi) = 1 < 10
    val q = new Qlove(1000, 100, ph, cfg, 0)
    val rnd = new scala.util.Random(3)
    val data = Array.fill(1000)(rnd.nextDouble() * 10000)
    data.foreach(q.insert)
    assert(q.evaluate()(0) == Stat.exactQuantile(data, 0.99))
  }

  test("sample-k activates on a burst and beats the Level-2 mean") {
    val ph = Array(0.99)
    val n = 2000L
    val p = 200L
    val cfgOff = FewKConfig.disabled(ph)
    val cfgOn = FewKConfig.sampleOnly(n, ph, 1.0) // step 1: lossless sampling
    val rnd = new scala.util.Random(4)
    val base = Array.fill(n.toInt)(100.0 + rnd.nextDouble() * 10)
    // burst: top-20 values of the *last* sub-window multiplied by 100
    val data = base.clone()
    val lastStart = (n - p).toInt
    val idx = (lastStart until n.toInt).sortBy(i => -data(i)).take(20)
    idx.foreach(i => data(i) *= 100)
    val exact = Stat.exactQuantile(data, 0.99)
    val qOff = new Qlove(n, p, ph, cfgOff, 0)
    val qOn = new Qlove(n, p, ph, cfgOn, 0)
    data.foreach { v => qOff.insert(v); qOn.insert(v) }
    val errOff = math.abs(qOff.evaluate()(0) - exact) / exact
    val errOn = math.abs(qOn.evaluate()(0) - exact) / exact
    assert(errOn < 1e-9, s"lossless sample-k should be exact, err=$errOn")
    assert(errOff > 0.5, s"Level-2 mean should be badly off under burst, err=$errOff")
  }

  test("burst flag clears once the bursty sub-window expires") {
    val ph = Array(0.9)
    val n = 400L
    val p = 100L
    val cfg = FewKConfig.sampleOnly(n, ph, 1.0, minPhi = 0.5)
    val q = new Qlove(n, p, ph, cfg, 0)
    val rnd = new scala.util.Random(5)
    def sub(scale: Double): Array[Double] = Array.fill(p.toInt)(scale * (1 + rnd.nextDouble()))
    // 4 calm sub-windows, 1 bursty, then 4 calm again
    sub(1.0) ++ sub(1.0) ++ sub(1.0) ++ sub(1.0) foreach q.insert
    assert(q.windowFull)
    sub(1000.0).foreach(q.insert) // burst arrives
    val estBurst = q.evaluate()(0)
    assert(estBurst > 100, s"burst should lift the tail estimate, got $estBurst")
    (1 to 4).foreach(_ => sub(1.0).foreach(q.insert)) // burst expires
    val estCalm = q.evaluate()(0)
    assert(estCalm < 10, s"estimate should settle after burst expiry, got $estCalm")
  }

  test("observedSpace shrinks with duplicate-heavy input") {
    val ph = Array(0.5)
    val qDup = new Qlove(4000, 2000, ph, FewKConfig.disabled(ph), 0)
    val qUniq = new Qlove(4000, 2000, ph, FewKConfig.disabled(ph), 0)
    (0 until 3000).foreach(i => qDup.insert((i % 5).toDouble))
    (0 until 3000).foreach(i => qUniq.insert(i.toDouble))
    assert(qDup.observedSpace < qUniq.observedSpace / 10)
  }

  test("analyticalSpace follows l*(N/P) + P") {
    val q = new Qlove(131072, 16384, Array(0.5, 0.9, 0.99, 0.999),
      FewKConfig.disabled(Array(0.5, 0.9, 0.99, 0.999)))
    assert(q.analyticalSpace == 4 * 8 + 16384)
  }

  test("fewkObservedSpace counts cached few-k entries across the window") {
    val ph = Array(0.999)
    // depthFromTop(1000, 0.999) = 2 -> pool = k_t = 2 per sub-window
    val cfg = FewKConfig.topOnly(1000, 100, ph, 1.0)
    val q = new Qlove(1000, 100, ph, cfg, 0)
    (1 to 1000).foreach(i => q.insert(i.toDouble))
    assert(q.fewkObservedSpace == 20) // 10 sub-windows x 2 cached values
  }

  test("multiple quantiles answered consistently in one evaluation") {
    val ph = Array(0.1, 0.5, 0.9)
    val q = new Qlove(1000, 500, ph, FewKConfig.disabled(ph), 0)
    (1 to 1000).foreach(i => q.insert(i.toDouble))
    val est = q.evaluate()
    assert(est(0) < est(1) && est(1) < est(2))
  }
}
