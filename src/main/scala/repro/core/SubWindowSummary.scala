package repro.core

/** Immutable summary of one completed sub-window (paper Fig. 2, `s_i`).
  *
  * Per requested quantile φ_i it carries the sub-window's exact φ_i-quantile
  * (Level-1 output), plus the few-k caches when enabled: the k_t largest
  * values (descending) and the interval samples of the exact-guarantee pool
  * (descending, each standing for `sampleStep` ranked values). `bursty(i)` is
  * the Mann–Whitney verdict of this sub-window's tail against its predecessor.
  */
final case class SubWindowSummary(
    count: Long,
    quantiles: Array[Double],
    topK: Array[Array[Double]],
    samples: Array[Array[Double]],
    bursty: Array[Boolean],
) {
  /** Stored scalars ("number of variables") attributable to this summary. */
  def observedSpace: Long =
    quantiles.length.toLong +
      topK.iterator.map(_.length.toLong).sum +
      samples.iterator.map(_.length.toLong).sum
}

object SubWindowSummary {

  /** Build the summary of a sealed Level-1 state. `prevPools(i)` is the
    * predecessor sub-window's tail pool per φ (for burst detection); pass
    * empty arrays for the first sub-window.
    */
  def fromSketch(sketch: FreqSketch, cfg: FewKConfig,
                 prevPools: Array[Array[Double]]): SubWindowSummary =
    seal(sketch, cfg, prevPools)._1

  /** [[fromSketch]] together with the sketch's per-φ tail pools (the `poolSize`
    * largest values, descending, for every φ with few-k on), so the caller
    * can keep them as the next sub-window's `prevPools` without a second pass.
    */
  def seal(sketch: FreqSketch, cfg: FewKConfig,
           prevPools: Array[Array[Double]]): (SubWindowSummary, Array[Array[Double]]) = {
    val tails = Array.tabulate(cfg.phis.length) { i =>
      if (cfg.topEnabled(i) || cfg.sampleEnabled(i)) sketch.topValues(cfg.poolSize(i))
      else Array.emptyDoubleArray
    }
    val bursty = Array.tabulate(cfg.phis.length) { i =>
      cfg.sampleEnabled(i) && prevPools(i).nonEmpty &&
        MannWhitney.isStochasticallyLarger(tails(i), prevPools(i), cfg.burstAlpha)
    }
    val summary = QloveEstimator.fromPools(sketch.count, sketch.computeResult(cfg.phis),
      tails, bursty, cfg)
    (summary, tails)
  }

  /** The per-φ tail pools of a sealed sketch (predecessor side of the next
    * sub-window's burst test).
    */
  def pools(sketch: FreqSketch, cfg: FewKConfig): Array[Array[Double]] =
    cfg.phis.indices.map { i =>
      if (cfg.sampleEnabled(i)) sketch.topValues(cfg.poolSize(i))
      else Array.emptyDoubleArray
    }.toArray
}
