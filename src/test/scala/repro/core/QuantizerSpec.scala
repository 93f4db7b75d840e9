package repro.core

import org.scalatest.funsuite.AnyFunSuite

class QuantizerSpec extends AnyFunSuite {

  test("keeps three significant digits") {
    assert(Quantizer.quantize(123456.0) == 123000.0)
    assert(Quantizer.quantize(1874.0) == 1870.0)
    assert(Quantizer.quantize(798.0) == 798.0)
    assert(Quantizer.quantize(74265.0) == 74300.0)
    assert(math.abs(Quantizer.quantize(0.0012345) - 0.00123) < 1e-12)
  }

  test("rounds to nearest, not truncates") {
    assert(Quantizer.quantize(1876.0) == 1880.0)
    assert(Quantizer.quantize(1999.5) == 2000.0)
  }

  test("zero and non-finite pass through") {
    assert(Quantizer.quantize(0.0) == 0.0)
    assert(Quantizer.quantize(Double.PositiveInfinity).isPosInfinity)
    assert(Quantizer.quantize(Double.NaN).isNaN)
  }

  test("negative values keep sign and magnitude quantization") {
    assert(Quantizer.quantize(-123456.0) == -123000.0)
    assert(Quantizer.quantize(-798.4) == -798.0)
  }

  test("digits parameter controls precision") {
    assert(Quantizer.quantize(123456.0, 1) == 100000.0)
    assert(Quantizer.quantize(123456.0, 2) == 120000.0)
    assert(Quantizer.quantize(123456.0, 6) == 123456.0)
  }

  /** The defining formula, computed per call with `log10` and `pow`. */
  private def reference(v: Double, digits: Int): Double = {
    if (v == 0.0 || v.isNaN || v.isInfinite) return v
    val a = math.abs(v)
    val exp = math.floor(math.log10(a)).toInt - (digits - 1)
    val scale = math.pow(10.0, exp)
    val q = math.rint(a / scale) * scale
    if (v < 0) -q else q
  }

  private def assertBitIdentical(v: Double, digits: Int): Unit = {
    val got = java.lang.Double.doubleToRawLongBits(Quantizer.quantize(v, digits))
    val want = java.lang.Double.doubleToRawLongBits(reference(v, digits))
    if (got != want) fail(s"v=$v (bits ${java.lang.Double.doubleToRawLongBits(v)}) digits=$digits: " +
      s"${java.lang.Double.longBitsToDouble(got)} vs ${java.lang.Double.longBitsToDouble(want)}")
  }

  test("table-driven quantize is bit-identical to the log10/pow formula") {
    val digitRange = 1 to 6
    // +-64 ulps around every power of ten, both signs
    for (k <- -320 to 308) {
      val p = java.lang.Double.doubleToRawLongBits(java.lang.Double.parseDouble(s"1e$k"))
      for (d <- -64L to 64L) {
        val v = java.lang.Double.longBitsToDouble(p + d)
        if (v > 0 && !v.isInfinite) digitRange.foreach { g =>
          assertBitIdentical(v, g); assertBitIdentical(-v, g)
        }
      }
    }
    // subnormals, extremes, zeros and non-finite values
    val rnd = new scala.util.Random(5)
    val subnormals = (1L to 4096L) ++ Seq.fill(20000)(1L + rnd.nextLong(0x000FFFFFFFFFFFFFL)) ++
      Seq(0x000FFFFFFFFFFFFFL)
    val specials = subnormals.map(java.lang.Double.longBitsToDouble) ++ Seq(
      Double.MinPositiveValue, java.lang.Double.MIN_NORMAL, Double.MaxValue, 0.0, -0.0,
      Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
    for (v <- specials; g <- digitRange) { assertBitIdentical(v, g); assertBitIdentical(-v, g) }
    // random bit patterns
    (0 until 1000000).foreach { i =>
      assertBitIdentical(java.lang.Double.longBitsToDouble(rnd.nextLong()), 1 + i % 6)
    }
  }

  test("rejects non-positive digits") {
    intercept[IllegalArgumentException](Quantizer.quantize(1.0, 0))
  }

  test("relative error is below 0.5% for three digits (property)") {
    val rnd = new scala.util.Random(1)
    (1 to 5000).foreach { _ =>
      val v = math.pow(10.0, rnd.nextDouble() * 12 - 6) * (1 + rnd.nextDouble())
      val q = Quantizer.quantize(v)
      assert(math.abs(q - v) / v <= 0.005 + 1e-12, s"v=$v q=$q")
    }
  }

  test("quantization is idempotent (property)") {
    val rnd = new scala.util.Random(2)
    (1 to 2000).foreach { _ =>
      val v = rnd.nextDouble() * 1e6
      val q = Quantizer.quantize(v)
      assert(Quantizer.quantize(q) == q, s"v=$v")
    }
  }

  test("quantization is monotone non-decreasing (property)") {
    val rnd = new scala.util.Random(3)
    (1 to 2000).foreach { _ =>
      val a = rnd.nextDouble() * 1e5
      val b = a + rnd.nextDouble() * 1e3
      assert(Quantizer.quantize(a) <= Quantizer.quantize(b), s"a=$a b=$b")
    }
  }

  test("integer microsecond latencies collapse to few uniques") {
    // 10000 values in [1000, 2000) -> at most 101 distinct 3-digit values
    val rnd = new scala.util.Random(4)
    val qs = (1 to 10000).map(_ => Quantizer.quantize(1000 + rnd.nextDouble() * 1000)).toSet
    assert(qs.size <= 101, s"got ${qs.size} uniques")
  }
}
