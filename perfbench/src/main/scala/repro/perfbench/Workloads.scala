package repro.perfbench

import repro.core.FewKConfig
import repro.data.Telemetry

/** One benchmark workload: NetMon-like data, a 128K window, period `period`
  * and a few-k configuration. Every workload runs all four paths (driver
  * operator, `SlidingEval` harness, `QloveBatch`, `QloveStreaming`).
  */
final case class Workload(name: String, period: Long, cfg: FewKConfig, bursty: Boolean) {
  def window: Long = Workload.WindowN
  def phis: Array[Double] = cfg.phis
  def nSub: Int = (window / period).toInt

  /** The benchmark input for `seed`: `events` NetMon values, with the top
    * N(1-0.999) values of every window's first sub-window multiplied by 10
    * when `bursty` (Table 4's bursty traffic).
    */
  def data(seed: Long, events: Int): Array[Double] = {
    val base = Array.tabulate(events)(i => Telemetry.netmonAt(seed, i.toLong))
    if (bursty) Telemetry.injectBurst(base, window, period, 0.999) else base
  }
}

object Workload {
  val WindowN: Long = 131072L
  val Phis: Array[Double] = Array(0.5, 0.9, 0.99, 0.999)
  val QuantizeDigits = 3
  /** Events per input array (driver and harness passes, stream source). */
  val Events: Int = 1 << 20
  /** Events in the batch path's cached frame (a prefix of the input). */
  val BatchEvents: Int = 1 << 19
  /** Events per streaming micro-batch (the `jobs/StreamingQuantiles` shape). */
  val StreamBatch: Int = 16384

  /** Table 1 setting: Level 1 does nearly all of the driver's work. */
  val L2: Workload = Workload("netmon-l2", 16384L, FewKConfig.disabled(Phis), bursty = false)

  /** Table 3 and Table 4 cells at P = 4K in one operator over bursty
    * traffic: top-k on Q0.999 (k_t = 66, fraction 0.5) and sample-k on Q0.99
    * (fraction 0.5), so seal builds pools and runs Mann–Whitney, and
    * evaluate answers with all three branches (mean, top-k, sample-k).
    */
  val BurstFewK: Workload = {
    val p = 4096L
    val top = FewKConfig.topOnly(WindowN, p, Phis, 0.5)
    val sample = FewKConfig.sampleOnly(WindowN, Phis, 0.5)
    val steps = Phis.indices.map(i => if (top.topEnabled(i)) 0 else sample.sampleStep(i)).toArray
    Workload("netmon-burst-fewk", p, FewKConfig(Phis, top.poolSize, top.topK, steps), bursty = true)
  }

  val All: Seq[Workload] = Seq(L2, BurstFewK)

  def byName(name: String): Workload =
    All.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${All.map(_.name).mkString(", ")})"))
}
