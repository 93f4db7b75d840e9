package repro.perfbench

import repro.baselines.ExactSliding
import repro.core.{FewK, FreqSketch, MannWhitney, Qlove, Quantizer, SubWindowSummary}
import repro.spark.SubWindowAgg
import scala.collection.mutable.{ArrayBuffer, ArrayDeque}

/** Closed-loop, single-client passes over the driver-side layers: the next
  * event is inserted when `insert` returns.
  */
object DriverPaths {

  /** One timed pass of the driver operator. */
  final case class Pass(nanos: Long, evals: Array[Array[Double]], latenciesNs: Array[Long])

  def newOperator(w: Workload): Qlove =
    new Qlove(w.window, w.period, w.phis, w.cfg, Workload.QuantizeDigits)

  /** Feed all of `data` through a fresh [[Qlove]]. A result latency is the
    * time of the period-closing `insert` (which seals) plus `evaluate()`.
    */
  def driverPass(w: Workload, data: Array[Double]): Pass = {
    val p = w.period
    val evals = new ArrayBuffer[Array[Double]]()
    val lat = new ArrayBuffer[Long]()
    val t0 = System.nanoTime()
    val op = newOperator(w)
    var i = 0
    while (i < data.length) {
      val closes = (i + 1) % p == 0 && i + 1 >= w.window
      if (closes) {
        val s = System.nanoTime()
        op.insert(data(i))
        val e = op.evaluate()
        lat += System.nanoTime() - s
        evals += e
      } else op.insert(data(i))
      i += 1
    }
    Pass(System.nanoTime() - t0, evals.toArray, lat.toArray)
  }

  /** The driver operator's composition replayed through the core layers'
    * public functions, with one span per layer call per sub-window:
    * `quantize` and `accumulate` (per-event layers, one span covering the
    * sub-window's P events), `seal` (children `seal.alg1`, `seal.pool`,
    * `seal.burst_test`) and `evaluate` (children `evaluate.mean`,
    * `evaluate.topk`, `evaluate.samplek`, one step each per evaluation).
    * Returns the window estimates, which must equal [[Qlove]]'s.
    */
  def tracedReplay(w: Workload, data: Array[Double], tr: Tracer): Array[Array[Double]] = {
    val cfg = w.cfg
    val phis = w.phis
    val l = phis.length
    val p = w.period.toInt
    val nSub = w.nSub
    val sampling = phis.indices.exists(cfg.sampleEnabled)
    val sketch = new FreqSketch
    val buf = new Array[Double](p)
    val summaries = new ArrayDeque[SubWindowSummary](nSub + 1)
    val sums = new Array[Double](l)
    var prevPools: Array[Array[Double]] = phis.map(_ => Array.emptyDoubleArray)
    val evals = new ArrayBuffer[Array[Double]]()
    val root = tr.begin("driver", -1)
    var start = 0
    while (start + p <= data.length) {
      val q = tr.begin("quantize", root)
      var j = 0
      while (j < p) { buf(j) = Quantizer.quantize(data(start + j), Workload.QuantizeDigits); j += 1 }
      tr.end(q)
      val a = tr.begin("accumulate", root)
      j = 0
      while (j < p) { sketch.accumulate(buf(j)); j += 1 }
      tr.end(a)

      val s = tr.begin("seal", root)
      tr.add("seal.count", 1)
      tr.add("seal.unique_keys", sketch.uniqueCount)
      val s1 = tr.begin("seal.alg1", s)
      val qs = sketch.computeResult(phis)
      tr.end(s1)
      val s2 = tr.begin("seal.pool", s)
      val pools = Array.tabulate(l) { i =>
        if (cfg.topEnabled(i) || cfg.sampleEnabled(i)) sketch.topValues(cfg.poolSize(i))
        else Array.emptyDoubleArray
      }
      val topK = Array.tabulate(l) { i =>
        if (cfg.topEnabled(i)) pools(i).take(math.min(cfg.topK(i), pools(i).length))
        else Array.emptyDoubleArray
      }
      val samples = Array.tabulate(l) { i =>
        if (cfg.sampleEnabled(i)) FewK.intervalSample(pools(i), cfg.sampleStep(i))
        else Array.emptyDoubleArray
      }
      tr.end(s2)
      val s3 = tr.begin("seal.burst_test", s)
      val bursty = Array.tabulate(l) { i =>
        val tested = cfg.sampleEnabled(i) && prevPools(i).nonEmpty
        if (tested) tr.add("burst.tests", 1)
        tested && MannWhitney.pValueGreater(pools(i), prevPools(i)) < cfg.burstAlpha
      }
      tr.end(s3)
      if (bursty.contains(true)) tr.add("burst.flagged", 1)
      val summary = SubWindowSummary(sketch.count, qs, topK, samples, bursty)
      if (sampling) {
        // the operator builds the predecessor pools in a second traversal
        val s4 = tr.begin("seal.pool", s)
        prevPools = SubWindowSummary.pools(sketch, cfg)
        tr.end(s4)
      }
      sketch.clear()
      summaries.append(summary)
      var i = 0
      while (i < l) { sums(i) += qs(i); i += 1 }
      if (summaries.length > nSub) {
        val old = summaries.removeHead()
        i = 0
        while (i < l) { sums(i) -= old.quantiles(i); i += 1 }
      }
      tr.end(s)
      start += p

      if (summaries.length == nSub) {
        val e = tr.begin("evaluate", root)
        val out = new Array[Double](l)
        val branch = Array.tabulate(l) { i =>
          if (cfg.sampleEnabled(i) && summaries.exists(_.bursty(i))) 2
          else if (cfg.topEnabled(i)) 1
          else 0
        }
        val m = tr.begin("evaluate.mean", e)
        i = 0
        while (i < l) {
          if (branch(i) == 0) { out(i) = sums(i) / nSub; tr.add("evaluate.branch_mean", 1) }
          i += 1
        }
        tr.end(m)
        val tk = tr.begin("evaluate.topk", e)
        i = 0
        while (i < l) {
          if (branch(i) == 1) {
            val t = FewK.depthFromTop(w.window, phis(i))
            val caches = summaries.map(_.topK(i))
            val merged = caches.iterator.map(_.length.toLong).sum
            out(i) = FewK.mergeTopK(caches, t)
            tr.add("evaluate.branch_topk", 1)
            tr.add("fewk.merged_values", merged)
            if (merged < t) tr.add("fewk.shortfall", 1)
          }
          i += 1
        }
        tr.end(tk)
        val sk = tr.begin("evaluate.samplek", e)
        i = 0
        while (i < l) {
          if (branch(i) == 2) {
            val t = FewK.depthFromTop(w.window, phis(i))
            val weighted = summaries.map(s => (s.samples(i),
              FewK.sampleWeight(math.min(cfg.poolSize(i).toLong, s.count).toInt, s.samples(i).length)))
            val merged = weighted.iterator.map(_._1.length.toLong).sum
            val weight = weighted.iterator.map(x => x._1.length * x._2).sum
            out(i) = FewK.mergeSampleK(weighted, t)
            tr.add("evaluate.branch_samplek", 1)
            tr.add("fewk.merged_values", merged)
            if (weight < t - 1e-9) tr.add("fewk.shortfall", 1)
          }
          i += 1
        }
        tr.end(sk)
        tr.end(e)
        evals += out
      }
    }
    tr.end(root)
    evals.toArray
  }

  /** Window estimates of `SlidingEval`'s exact ground truth, one span per
    * sub-window of inserts (`ground_truth.insert`) and per evaluation
    * (`ground_truth.evaluate`).
    */
  def tracedGroundTruth(w: Workload, data: Array[Double], tr: Tracer): Int = {
    val truth = new ExactSliding(w.window, w.phis)
    val p = w.period.toInt
    var evals = 0
    var start = 0
    while (start + p <= data.length) {
      val s = tr.begin("ground_truth.insert", -1)
      var j = 0
      while (j < p) { truth.insert(data(start + j)); j += 1 }
      tr.end(s)
      start += p
      if (start >= w.window) {
        val e = tr.begin("ground_truth.evaluate", -1)
        truth.evaluate()
        tr.end(e)
        evals += 1
      }
    }
    evals
  }

  /** The Spark Level-1 aggregate called directly, one sub-window at a time:
    * `udaf.reduce` over its P events, then `udaf.finish`. Returns each
    * sub-window's quantiles.
    */
  def tracedUdaf(w: Workload, data: Array[Double], tr: Tracer): Array[Array[Double]] = {
    val cfg = w.cfg
    val agg = new SubWindowAgg(w.phis, w.phis.indices.map { i =>
      if (cfg.topEnabled(i) || cfg.sampleEnabled(i)) cfg.poolSize(i) else 0
    }.toArray, Workload.QuantizeDigits)
    val p = w.period.toInt
    val out = new ArrayBuffer[Array[Double]]()
    var start = 0
    while (start + p <= data.length) {
      val r = tr.begin("udaf.reduce", -1)
      var b = agg.zero
      var j = 0
      while (j < p) { b = agg.reduce(b, data(start + j)); j += 1 }
      tr.end(r)
      val f = tr.begin("udaf.finish", -1)
      out += agg.finish(b).quantiles.toArray
      tr.end(f)
      start += p
    }
    out.toArray
  }

  /** Per sub-window quantiles of the driver's Level 1 (the UDAF's reference). */
  def subWindowQuantiles(w: Workload, data: Array[Double]): Array[Array[Double]] = {
    val sketch = new FreqSketch
    val p = w.period.toInt
    data.grouped(p).filter(_.length == p).map { chunk =>
      sketch.clear()
      chunk.foreach(v => sketch.accumulate(Quantizer.quantize(v, Workload.QuantizeDigits)))
      sketch.computeResult(w.phis)
    }.toArray
  }
}
