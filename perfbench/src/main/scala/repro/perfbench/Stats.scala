package repro.perfbench

/** Summary statistics used by every reported number. */
object Stats {

  /** Fewest samples that must lie strictly beyond a reported percentile. */
  val MinBeyond = 10

  def median(xs: scala.collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2.0
  }

  /** Nearest-rank p-th percentile (0 < p < 1): the ⌈p·n⌉-th smallest sample. */
  def percentile(xs: scala.collection.Seq[Double], p: Double): Double = {
    require(xs.nonEmpty && p > 0.0 && p < 1.0, s"percentile $p of ${xs.length} samples")
    xs.sorted.apply(rankOf(xs.length, p) - 1)
  }

  private def rankOf(n: Int, p: Double): Int =
    math.max(1, math.ceil(p * n - 1e-9).toInt)

  /** Samples strictly above the nearest-rank p-th percentile position. */
  def beyond(n: Int, p: Double): Int = n - rankOf(n, p)

  /** The p-th percentile, or None when fewer than [[MinBeyond]] samples lie
    * beyond it (the percentile would rest on too few samples).
    */
  def reportablePercentile(xs: scala.collection.Seq[Double], p: Double): Option[Double] =
    if (xs.nonEmpty && beyond(xs.length, p) >= MinBeyond) Some(percentile(xs, p)) else None

  /** Fewest samples for which the p-th percentile is reportable. */
  def samplesNeeded(p: Double): Int =
    Iterator.from(1).find(n => beyond(n, p) >= MinBeyond).get

  /** Events per second for `events` processed in `nanos` nanoseconds. */
  def eventsPerSecond(events: Long, nanos: Long): Double = {
    require(nanos > 0, s"non-positive duration $nanos ns")
    events.toDouble * 1e9 / nanos
  }

  /** Relative agreement rule of the batch-vs-driver equality specs. */
  def closeRel(a: Double, b: Double, rel: Double = 1e-9): Boolean =
    math.abs(a - b) <= rel * math.max(1.0, math.abs(b))
}
