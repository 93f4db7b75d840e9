package repro.core

/** Value quantization to boost duplicate density (paper §3.1).
  *
  * "Some insignificant low-order digits of streamed values may be zeroed out.
  * Often, we consider only the three most significant digits of the original
  * value, which ensures the quantized value within less than 1% relative
  * error."
  *
  * The result is defined as `rint(|v| / s) * s` with sign restored, where
  * `s = pow(10, floor(log10(|v|)) - (digits - 1))`. Computing `log10` and
  * `pow` per value dominated Level 1, so both come from tables built once:
  * the decade from the binary exponent plus one threshold compare, the scale
  * from a table of `math.pow(10, k)`. The tables are built with `Math.log10`
  * and `math.pow` themselves, so the result is bit-identical to the formula.
  */
object Quantizer {

  // Decades floor(log10(x)) of positive finite doubles span [-324, 308].
  private val MinDecade = -324
  private val MaxDecade = 308

  private def decadeOf(x: Double): Int = math.floor(math.log10(x)).toInt

  /** `decadeStart(k - MinDecade)` is the smallest positive double whose
    * `floor(log10)` is at least `k`. `Math.log10` is semi-monotonic, so
    * `floor(log10(x)) >= k` exactly when `x >= decadeStart(k - MinDecade)`;
    * positive doubles order like their bit patterns, so a binary search over
    * the bits finds each threshold.
    */
  private val decadeStart: Array[Double] = Array.tabulate(MaxDecade - MinDecade + 1) { i =>
    val k = MinDecade + i
    var lo = 1L // Double.MinPositiveValue
    var hi = java.lang.Double.doubleToRawLongBits(Double.MaxValue)
    while (lo < hi) {
      val mid = lo + (hi - lo) / 2
      if (decadeOf(java.lang.Double.longBitsToDouble(mid)) >= k) hi = mid else lo = mid + 1
    }
    java.lang.Double.longBitsToDouble(lo)
  }

  /** Per biased binary exponent `e` of a normal double: the decade of the
    * binade's smallest value. A binade spans a factor of 2 < 10, so every
    * value in it has that decade or the next one.
    */
  private val binadeDecade: Array[Int] = Array.tabulate(2047) { e =>
    if (e == 0) MinDecade else decadeOf(java.lang.Double.longBitsToDouble(e.toLong << 52))
  }

  // Scales 10^k for the exponents that decades in range give with 1 to 32
  // digits; any other exponent falls back to math.pow.
  private val MinScaleExp = MinDecade - 31
  private val scales: Array[Double] =
    Array.tabulate(MaxDecade - MinScaleExp + 1)(i => math.pow(10.0, MinScaleExp + i))

  /** `floor(Math.log10(a))` for a positive finite `a`. */
  private def decade(a: Double): Int = {
    val e = (java.lang.Double.doubleToRawLongBits(a) >>> 52).toInt
    var d = binadeDecade(e)
    if (e == 0) { // subnormal: search the thresholds upward from the lowest decade
      while (d < MaxDecade && a >= decadeStart(d + 1 - MinDecade)) d += 1
    } else if (d < MaxDecade && a >= decadeStart(d + 1 - MinDecade)) d += 1
    d
  }

  private def pow10(k: Int): Double =
    if (k >= MinScaleExp && k <= MaxDecade) scales(k - MinScaleExp) else math.pow(10.0, k)

  /** Keep the `digits` most significant decimal digits of `v` (round to
    * nearest); sign is preserved, 0 and non-finite values pass through.
    * With `digits = 3` the relative error is at most 0.5%.
    */
  def quantize(v: Double, digits: Int = 3): Double = {
    require(digits >= 1, s"digits must be >= 1, got $digits")
    if (v == 0.0 || v.isNaN || v.isInfinite) return v
    val a = math.abs(v)
    val scale = pow10(decade(a) - (digits - 1))
    val q = math.rint(a / scale) * scale
    if (v < 0) -q else q
  }
}
