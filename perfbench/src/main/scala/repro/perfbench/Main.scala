package repro.perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.sql.SparkSession
import repro.harness.SlidingEval
import repro.spark.TelemetryEvent
import scala.collection.mutable

/** QLOVE benchmark entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]`.
  *
  * `--trace 0` measures the end-to-end metrics of all four paths; `--trace 1`
  * is the separate traced run that reports per-layer metrics. Either way
  * every path's evaluations are checked against the driver operator, the
  * full run record is written under the work directory, and the last line
  * of standard output is the result object.
  */
object Main {
  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean, workDir: File)

  def parseArgs(argv: Array[String]): Args = {
    require(argv.length % 2 == 0, s"expected --key value pairs, got ${argv.mkString(" ")}")
    val kv = argv.grouped(2).map(a => a(0) -> a(1)).toMap
    val known = Set("--workload", "--seed", "--seconds", "--trace", "--work-dir")
    require(kv.keySet.subsetOf(known), s"unknown option(s) ${(kv.keySet -- known).mkString(", ")}")
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    val seconds = get("--seconds").toInt
    require(seconds >= 1, s"--seconds must be >= 1, got $seconds")
    val trace = get("--trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Args(Workload.byName(get("--workload")), get("--seed").toLong, seconds, trace,
      new File(kv.getOrElse("--work-dir", ".bench_build")))
  }

  def main(argv: Array[String]): Unit = {
    val args = try parseArgs(argv) catch {
      case e: IllegalArgumentException =>
        System.err.println(s"perfbench: ${e.getMessage}")
        sys.exit(2)
    }
    val bench = new Bench(args)
    val line = bench.run()
    println(line)
    System.out.flush()
    sys.exit(0)
  }
}

/** One benchmark run. Inputs are generated before any timing; each path
  * gets untimed warm-up passes, then measured passes for its share of
  * `--seconds`.
  */
final class Bench(args: Main.Args) {
  private val w = args.workload
  /** Spark task slots: two of the machine's cores, leaving the others to the
    * driver thread, the JIT and the garbage collector.
    */
  private val cores = math.min(2, Runtime.getRuntime.availableProcessors())
  private val gate = new Gate
  private val raw = mutable.LinkedHashMap.empty[String, Any]
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val runId = s"${w.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}-${ProcessHandle.current().pid()}"
  private val runDir = new File(args.workDir, s"run-$runId")

  private def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  private val started = System.nanoTime()

  /** Log the end of a phase, with the run's elapsed time, to stderr. */
  private def phase(name: String): Unit =
    System.err.println(f"[perfbench] ${(System.nanoTime() - started) / 1e9}%8.2f s  $name done")

  /** Measured passes of `pass` for `share` of the run, at least `min` times. */
  private def measure[A](share: Double, min: Int)(pass: => A): Seq[A] = {
    val budget = (share * args.seconds * 1e9).toLong
    val t0 = System.nanoTime()
    val out = mutable.ArrayBuffer.empty[A]
    while (out.length < min || System.nanoTime() - t0 < budget) out += pass
    out.toSeq
  }

  private val data = w.data(args.seed, Workload.Events)
  private val events = Workload.Events.toLong
  /** Driver operator's evaluations keyed by evaluation id (the reference). */
  private val reference: Map[Long, Seq[Double]] = keyed(DriverPaths.driverPass(w, data).evals)

  private def keyed(evals: Array[Array[Double]]): Map[Long, Seq[Double]] =
    evals.indices.map(k => (w.nSub - 1L + k) -> evals(k).toSeq).toMap

  def run(): String = {
    runDir.mkdirs()
    try {
      if (args.trace) traced() else timed()
    } finally deleteTree(runDir)
    val record = mutable.LinkedHashMap[String, Any](
      "workload" -> w.name, "seed" -> args.seed, "seconds" -> args.seconds,
      "trace" -> args.trace, "window" -> w.window, "period" -> w.period, "phis" -> w.phis.toSeq,
      "events" -> events, "batch_events" -> Workload.BatchEvents,
      "stream_batch_events" -> Workload.StreamBatch,
      "cores" -> cores, "nproc" -> Runtime.getRuntime.availableProcessors(),
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "heap_max_bytes" -> Runtime.getRuntime.maxMemory(),
      "spark_master" -> s"local[$cores]", "spark_version" -> org.apache.spark.SPARK_VERSION,
      "shuffle_partitions" -> SparkPaths.ShufflePartitions,
      "git_commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
      "source_hash" -> sys.props.getOrElse("perfbench.sources", "unknown"),
      "gate" -> gate.record, "raw" -> raw,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) },
    )
    val dir = new File(args.workDir, "records")
    dir.mkdirs()
    val pw = new PrintWriter(new File(dir, s"$runId.json"))
    try pw.println(Json.render(record)) finally pw.close()
    Json.render(mutable.LinkedHashMap[String, Any](
      "correct" -> (gate.failed == 0 && gate.attempted > 0),
      "attempted" -> gate.attempted, "failed" -> gate.failed,
      "metrics" -> metrics.map { case (k, (v, u)) =>
        k -> mutable.LinkedHashMap[String, Any]("value" -> v, "unit" -> u) }))
  }

  // ---- set-up ---------------------------------------------------------------

  private var spark: SparkSession = _
  private var stream: SparkPaths.StreamRun = _

  /** SparkSession + streaming query start + operator construction, `reps`
    * times; all but the last are torn down again. Returns each set-up's ns.
    */
  private def setUp(reps: Int): Seq[Long] = (1 to reps).map { r =>
    val t0 = System.nanoTime()
    spark = SparkPaths.session(cores, runDir)
    stream = new SparkPaths.StreamRun(spark, w, new File(runDir, s"checkpoint-$r"))
    DriverPaths.newOperator(w)
    val ns = System.nanoTime() - t0
    if (r < reps) { stream.stop(); spark.stop() }
    ns
  }

  // ---- paths ----------------------------------------------------------------

  private def streamEvents(from: Int, n: Int): Seq[TelemetryEvent] =
    (from until from + n).map(i => TelemetryEvent(i.toLong, data(i)))

  /** Streaming path: one untimed micro-batch filling the window and one
    * warm-up micro-batch, then measured micro-batches of
    * [[Workload.StreamBatch]] events. Returns (ns, progress readings) per
    * measured micro-batch.
    */
  private def streamPath(share: Double): Seq[(Long, Map[String, Double])] = {
    val b = Workload.StreamBatch
    var fed = 0
    stream.feed(streamEvents(0, w.window.toInt)); fed += w.window.toInt
    stream.feed(streamEvents(fed, b)); fed += b
    val budget = (share * args.seconds * 1e9).toLong
    val t0 = System.nanoTime()
    val out = mutable.ArrayBuffer.empty[(Long, Map[String, Double])]
    while ((out.length < 3 || System.nanoTime() - t0 < budget) && fed + b <= data.length) {
      val ns = stream.feed(streamEvents(fed, b))
      fed += b
      out += ((ns, SparkPaths.progressReadings(stream.lastProgress)))
    }
    stream.stop()
    val lastEval = fed / w.period - 1
    gate.check("stream", stream.results,
      reference.filter { case (id, _) => id <= lastEval }, exact = true)
    out.toSeq
  }

  private val batchData = data.take(Workload.BatchEvents)
  private val batchLastEval = Workload.BatchEvents / w.period - 1

  private def batchCheck(got: Array[repro.spark.EvalEstimate]): Unit =
    gate.check("batch", got.map(e => e.eval -> e.estimates).toMap,
      reference.filter { case (id, _) => id <= batchLastEval }, exact = false)

  private def driverCheck(evals: Array[Array[Double]], path: String, exact: Boolean): Unit =
    gate.check(path, keyed(evals), reference, exact)

  // ---- the untraced run: end-to-end metrics ---------------------------------

  /** Closed-loop passes of the driver operator and the harness. A shared
    * host can slow a pass by 20% and more for seconds at a time, so the
    * measured passes are spread over the whole run: before Spark starts,
    * after the stream, after each batch pass (driver only) and after Spark
    * stops.
    */
  private final class DriverSide {
    val driverNs = mutable.ArrayBuffer.empty[Long]
    val latencies = mutable.ArrayBuffer.empty[Long]
    val harnessNs = mutable.ArrayBuffer.empty[Long]
    var result: SlidingEval.PolicyResult = _

    private def within(t: Long, share: Double) =
      System.nanoTime() - t < (share * args.seconds * 1e9).toLong

    private def driver(): Long = {
      val p = DriverPaths.driverPass(w, data)
      driverCheck(p.evals, "driver", exact = true)
      latencies ++= p.latenciesNs
      p.nanos
    }

    private def harness(): Long = {
      val t = System.nanoTime()
      val r = SlidingEval.run(data, w.window, w.period, w.phis, Seq(DriverPaths.newOperator(w))).head
      val ns = System.nanoTime() - t
      driverCheck(r.estimates, "harness", exact = true)
      result = r
      ns
    }

    /** Untimed driver passes until the last three agree within 10% (at
      * least 10% of the run, at most 20%), then one untimed harness pass.
      */
    def warmUp(): Unit = {
      val warm = mutable.ArrayBuffer.empty[Long]
      def settled = warm.length >= 3 && warm.takeRight(3).max <= 1.1 * warm.takeRight(3).min
      val t0 = System.nanoTime()
      while (within(t0, 0.1) || (!settled && within(t0, 0.2))) warm += driver()
      harness()
      latencies.clear()
      raw("warmup_driver_pass_ns") = warm.toSeq
    }

    /** Measured driver passes for at least [[RoundNs]], at least one. */
    def driverRound(): Unit = {
      val t0 = System.nanoTime()
      do driverNs += driver() while (System.nanoTime() - t0 < RoundNs)
    }

    /** Measured rounds for `share` of the run, at least one: a driver
      * round, then one harness pass.
      */
    def segment(share: Double): Unit = {
      val t0 = System.nanoTime()
      do {
        driverRound()
        harnessNs += harness()
      } while (within(t0, share))
    }
  }

  /** Shortest run of measured driver passes. */
  private val RoundNs = 600000000L

  private def timed(): Unit = {
    val side = new DriverSide
    side.warmUp()
    side.segment(0.1)
    phase("driver and harness")

    val setups = setUp(5)
    raw("setup_ns") = setups
    phase("setup")

    val batches = streamPath(0.4)
    raw("stream_batch_ns") = batches.map(_._1)
    raw("stream_progress") = batches.map(_._2)
    val streamed = batches.length.toLong * Workload.StreamBatch
    phase("stream")
    side.segment(0.1)
    phase("driver and harness")

    // One untimed pass, then four measured ones, each followed by driver
    // passes: Spark's batch passes speed up over their first several runs in
    // a JVM, so a fixed number of passes keeps every run at the same point
    // of that ramp.
    val df = SparkPaths.cachedEvents(spark, batchData)
    batchCheck(SparkPaths.batchEstimates(spark, w, df))
    val batchNs = Seq.fill(4) {
      val t0 = System.nanoTime()
      val got = SparkPaths.batchEstimates(spark, w, df)
      val ns = System.nanoTime() - t0
      batchCheck(got)
      side.driverRound()
      ns
    }
    raw("batch_pass_ns") = batchNs
    df.unpersist()
    spark.stop()
    phase("batch")
    side.segment(0.1)
    phase("driver and harness")

    raw("driver_pass_ns") = side.driverNs.toSeq
    raw("harness_pass_ns") = side.harnessNs.toSeq
    raw("value_err_pct") = side.result.valueErrorPct.toSeq
    raw("rank_error") = side.result.rankError.toSeq
    val latUs = side.latencies.map(_ / 1e3).toSeq
    // Events of all measured passes over their summed time: on a shared
    // host a pass's speed swings between a slow and a fast level, and the
    // median of a few such passes jumps between the two.
    def eps(ns: scala.collection.Seq[Long], n: Long) = Stats.eventsPerSecond(n * ns.length, ns.sum)
    metric("setup_s", Stats.median(setups.map(_.toDouble)) / 1e9, "s")
    metric("driver_events_per_s", eps(side.driverNs, events), "1/s")
    raw("driver_result_latency_samples") = latUs.length
    raw("driver_result_latency_p50_us") = Stats.reportablePercentile(latUs, 0.5)
    raw("driver_result_latency_p90_us") = Stats.reportablePercentile(latUs, 0.9)
    metric("harness_events_per_s", eps(side.harnessNs, events), "1/s")
    metric("batch_events_per_s", eps(batchNs, Workload.BatchEvents.toLong), "1/s")
    metric("stream_events_per_s",
      Stats.eventsPerSecond(streamed, batches.map(_._1).sum), "1/s")
    metric("observed_space_vars", side.result.observedSpace.toDouble, "count")
    raw("stream_result_latency_ms") = batches.map(_._1 / 1e6)
    raw("stream_result_latency_p50_ms") =
      Stats.reportablePercentile(batches.map(_._1 / 1e6), 0.5)
  }

  /** Untimed driver passes: at least three, and at least two seconds, so the
    * once-per-period seal and evaluate code is compiled before measurement.
    */
  private def warmUpDriver(): Unit = {
    val t0 = System.nanoTime()
    var n = 0
    while (n < 3 || System.nanoTime() - t0 < 2000000000L) { DriverPaths.driverPass(w, data); n += 1 }
  }

  private def percentileMetric(name: String, xs: Seq[Double], p: Double, unit: String): Unit = {
    val v = Stats.reportablePercentile(xs, p).getOrElse(throw new IllegalStateException(
      s"$name needs ${Stats.samplesNeeded(p)} samples, got ${xs.length}"))
    raw(s"${name}_samples") = xs.length
    metric(name, v, unit)
  }

  // ---- the traced run: per-layer metrics ------------------------------------

  private def traced(): Unit = {
    warmUpDriver()
    DriverPaths.tracedReplay(w, data, new Tracer) // warm-up
    val tr = new Tracer
    val plain = mutable.ArrayBuffer.empty[Long]
    val traced = mutable.ArrayBuffer.empty[Long]
    val latencies = mutable.ArrayBuffer.empty[Double]
    measure(0.2, 3) {
      val p = DriverPaths.driverPass(w, data)
      plain += p.nanos
      latencies ++= p.latenciesNs.map(_ / 1e3)
      val t0 = System.nanoTime()
      val evals = DriverPaths.tracedReplay(w, data, tr)
      traced += System.nanoTime() - t0
      driverCheck(evals, "traced_replay", exact = false)
      tr.pass += 1
    }
    phase("driver")
    while (latencies.length < Stats.samplesNeeded(0.9))
      latencies ++= DriverPaths.driverPass(w, data).latenciesNs.map(_ / 1e3)
    percentileMetric("driver.result_latency_p50_us", latencies.toSeq, 0.5, "us")
    percentileMetric("driver.result_latency_p90_us", latencies.toSeq, 0.9, "us")
    raw("driver_plain_pass_ns") = plain.toSeq
    raw("driver_traced_pass_ns") = traced.toSeq
    val nPass = tr.pass.toDouble
    val sum = tr.summary
    def total(n: String) = sum.get(n).map(_._2).getOrElse(0L).toDouble
    def self(n: String) = sum.get(n).map(_._3).getOrElse(0L).toDouble
    def count(n: String) = sum.get(n).map(_._1).getOrElse(0).toDouble
    val replayed = nPass * (data.length / w.period) * w.period
    val seals = tr.counter("seal.count").toDouble
    val evals = count("evaluate")
    metric("quantize.self_ns_per_event", self("quantize") / replayed, "ns")
    metric("accumulate.self_ns_per_event", self("accumulate") / replayed, "ns")
    metric("seal.unique_keys", tr.counter("seal.unique_keys") / seals, "count")
    metric("seal.self_us", self("seal") / seals / 1e3, "us")
    metric("seal.alg1_us", total("seal.alg1") / seals / 1e3, "us")
    metric("seal.pool_us", total("seal.pool") / seals / 1e3, "us")
    metric("seal.burst_test_us", total("seal.burst_test") / seals / 1e3, "us")
    metric("evaluate.self_us", self("evaluate") / evals / 1e3, "us")
    for (b <- Seq("mean", "topk", "samplek")) {
      metric(s"evaluate.${b}_us", total(s"evaluate.$b") / evals / 1e3, "us")
    }
    for (b <- Seq("mean", "topk", "samplek"))
      metric(s"evaluate.branch_$b", tr.counter(s"evaluate.branch_$b") / nPass, "count")
    metric("fewk.merged_values", tr.counter("fewk.merged_values") / nPass, "count")
    metric("fewk.shortfall", tr.counter("fewk.shortfall") / nPass, "count")
    metric("burst.flagged_share", tr.counter("burst.flagged") / seals, "ratio")
    val driverTotal = total("driver")
    metric("driver.level1_share", (self("quantize") + self("accumulate")) / driverTotal, "ratio")
    metric("driver.seal_share", total("seal") / driverTotal, "ratio")
    metric("driver.evaluate_share", total("evaluate") / driverTotal, "ratio")
    metric("trace.unattributed_share", self("driver") / driverTotal, "ratio")
    metric("trace.overhead_share",
      Stats.median(traced.map(_.toDouble)) / Stats.median(plain.map(_.toDouble)) - 1.0, "ratio")

    val gt = new Tracer
    measure(0.075, 1) { DriverPaths.tracedGroundTruth(w, data, gt); gt.pass += 1 }
    phase("ground truth")
    val gs = gt.summary
    metric("ground_truth.insert_ns_per_event",
      gs("ground_truth.insert")._2.toDouble / (gt.pass.toDouble * (data.length / w.period) * w.period), "ns")
    metric("ground_truth.evaluate_us",
      gs("ground_truth.evaluate")._2.toDouble / gs("ground_truth.evaluate")._1 / 1e3, "us")

    val want = DriverPaths.subWindowQuantiles(w, data)
    val wantKeyed = want.indices.map(i => i.toLong -> want(i).toSeq).toMap
    val ut = new Tracer
    measure(0.075, 1) {
      val got = DriverPaths.tracedUdaf(w, data, ut)
      gate.check("udaf", got.indices.map(i => i.toLong -> got(i).toSeq).toMap, wantKeyed, exact = true)
      ut.pass += 1
    }
    phase("udaf")
    val us = ut.summary
    metric("udaf.reduce_ns_per_event",
      us("udaf.reduce")._2.toDouble / (ut.pass.toDouble * want.length * w.period), "ns")
    metric("udaf.finish_us", us("udaf.finish")._2.toDouble / us("udaf.finish")._1 / 1e3, "us")

    val acc = SlidingEval.run(data, w.window, w.period, w.phis, Seq(DriverPaths.newOperator(w))).head
    driverCheck(acc.estimates, "harness", exact = true)
    metric("accuracy.value_err_pct_q99", acc.valueErrorPct(w.phis.indexOf(0.99)), "%")
    metric("accuracy.value_err_pct_q999", acc.valueErrorPct(w.phis.indexOf(0.999)), "%")
    phase("accuracy")

    setUp(1)
    val batches = streamPath(0.35)
    val readings = batches.map(_._2)
    phase("stream")
    raw("stream_progress") = readings
    for (k <- Seq("add_batch_ms", "wal_commit_ms", "commit_offsets_ms", "planning_ms",
                  "state_commit_ms", "state_update_ms"))
      metric(s"stream.$k", Stats.median(readings.map(_(k))), "ms")
    metric("stream.state_bytes", Stats.median(readings.map(_("state_bytes"))), "bytes")
    metric("stream.shuffle_partitions", readings.last("shuffle_partitions"), "count")
    metric("stream.add_batch_share", Stats.median(batches.map { case (ns, r) =>
      r("add_batch_ms") * 1e6 / ns }), "ratio")

    val df = SparkPaths.cachedEvents(spark, batchData)
    val listener = new SparkPaths.TaskListener
    spark.sparkContext.addSparkListener(listener)
    batchCheck(SparkPaths.batchEstimates(spark, w, df))
    val passes = measure(0.3, 2) {
      val t1 = System.nanoTime()
      SparkPaths.stage1(w, df)
      val s1 = System.nanoTime() - t1
      val t2 = System.nanoTime()
      val (got, (tasks, shuffle, skew)) =
        SparkPaths.observe(spark, listener)(SparkPaths.batchEstimates(spark, w, df))
      val full = System.nanoTime() - t2
      batchCheck(got)
      (s1, full, tasks, shuffle, skew)
    }
    raw("batch_passes") = passes.map(p => Map("stage1_ns" -> p._1, "full_ns" -> p._2,
      "tasks" -> p._3, "shuffle_bytes" -> p._4, "max_task_share" -> p._5))
    phase("batch")
    metric("batch.stage1_s", Stats.median(passes.map(_._1 / 1e9)), "s")
    metric("batch.stage2_s", Stats.median(passes.map(p => (p._2 - p._1) / 1e9)), "s")
    metric("batch.shuffle_bytes", Stats.median(passes.map(_._4.toDouble)), "bytes")
    metric("batch.tasks", Stats.median(passes.map(_._3.toDouble)), "count")
    metric("batch.max_task_share", Stats.median(passes.map(_._5)), "ratio")
    df.unpersist()
    spark.stop()
    val traces = new File(args.workDir, "traces")
    tr.writeJsonLines(new File(traces, s"$runId-driver.jsonl"))
    gt.writeJsonLines(new File(traces, s"$runId-ground_truth.jsonl"))
    ut.writeJsonLines(new File(traces, s"$runId-udaf.jsonl"))
  }

  private def deleteTree(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(deleteTree))
    f.delete()
  }
}
