package repro.perfbench

import java.io.File
import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryProgress}
import repro.spark.{EvalEstimate, QloveBatch, QloveStreaming, TelemetryEvent}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The Spark paths: session set-up, `QloveBatch` passes observed by a
  * [[TaskListener]], and a `QloveStreaming` query fed one micro-batch at a
  * time (the next `addData` happens when `processAllAvailable` returns).
  */
object SparkPaths {
  /** Shuffle partitions of the test suite's shared session. */
  val ShufflePartitions = 64

  def session(cores: Int, workDir: File): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("qlove-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** The benchmark input as a cached, materialized (`seq`, `value`) frame. */
  def cachedEvents(spark: SparkSession, data: Array[Double]): DataFrame = {
    import spark.implicits._
    val df = spark.sparkContext
      .parallelize(data.indices.map(i => (i.toLong, data(i))), 8)
      .toDF("seq", "value").cache()
    df.count()
    df
  }

  def batchEstimates(spark: SparkSession, w: Workload, df: DataFrame): Array[EvalEstimate] =
    QloveBatch.estimates(spark, df, w.window, w.period, w.cfg, Workload.QuantizeDigits).collect()

  def stage1(w: Workload, df: DataFrame): Int =
    QloveBatch.subWindowSummaries(df, w.period, w.cfg, Workload.QuantizeDigits).collect().length

  /** Task counts, shuffle bytes written and task durations of the jobs run
    * under [[observe]].
    */
  final class TaskListener extends SparkListener {
    private val durations = mutable.ArrayBuffer.empty[Long]
    private var shuffleBytes = 0L
    private val jobsEnded = mutable.HashSet.empty[Int]

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      durations += e.taskInfo.duration
      if (e.taskMetrics != null) shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobsEnded += e.jobId }

    def reset(): Unit = synchronized { durations.clear(); shuffleBytes = 0L; jobsEnded.clear() }

    def ended(ids: Seq[Int]): Boolean = synchronized(ids.forall(jobsEnded.contains))

    /** (tasks, shuffle bytes written, largest task's share of all task time). */
    def snapshot: (Int, Long, Double) = synchronized {
      val total = durations.sum
      (durations.length, shuffleBytes, if (total > 0) durations.max.toDouble / total else 0.0)
    }
  }

  private var groupSeq = 0

  /** Run `body` as one job group and wait until the listener has seen every
    * job of the group end (listener events arrive asynchronously).
    */
  def observe[A](spark: SparkSession, listener: TaskListener)(body: => A): (A, (Int, Long, Double)) = {
    groupSeq += 1
    val group = s"perfbench-$groupSeq"
    val sc = spark.sparkContext
    listener.reset()
    sc.setJobGroup(group, group)
    val out = try body finally sc.clearJobGroup()
    val jobs = sc.statusTracker.getJobIdsForGroup(group).toSeq
    val deadline = System.nanoTime() + 10L * 1000000000L
    while (!listener.ended(jobs) && System.nanoTime() < deadline) Thread.sleep(5)
    (out, listener.snapshot)
  }

  /** A running `QloveStreaming` query over a memory source, collecting every
    * emitted evaluation.
    */
  final class StreamRun(spark: SparkSession, w: Workload, checkpoint: File) {
    import spark.implicits._
    private implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    private val source = MemoryStream[TelemetryEvent]
    val emitted = new ConcurrentHashMap[Long, Seq[Double]]()
    private val query: StreamingQuery =
      QloveStreaming.attach(spark, source.toDS(), w.window, w.period, w.cfg, Workload.QuantizeDigits)
        .writeStream.outputMode("append")
        .option("checkpointLocation", checkpoint.getAbsolutePath)
        .foreachBatch { (batch: Dataset[EvalEstimate], _: Long) =>
          batch.collect().foreach(e => emitted.put(e.eval, e.estimates))
        }
        .start()

    /** Add one micro-batch and wait until it is processed; returns the ns taken. */
    def feed(events: Seq[TelemetryEvent]): Long = {
      val t0 = System.nanoTime()
      source.addData(events)
      query.processAllAvailable()
      System.nanoTime() - t0
    }

    def lastProgress: StreamingQueryProgress = query.lastProgress

    def results: Map[Long, Seq[Double]] = emitted.asScala.toMap

    def stop(): Unit = query.stop()
  }

  /** The per-micro-batch readings of `StreamingQuery.lastProgress`. */
  def progressReadings(p: StreamingQueryProgress): Map[String, Double] = {
    val d = p.durationMs.asScala.map { case (k, v) => k -> v.doubleValue }
    val st = p.stateOperators.headOption
    Map(
      "add_batch_ms" -> d.getOrElse("addBatch", 0.0),
      "wal_commit_ms" -> d.getOrElse("walCommit", 0.0),
      "commit_offsets_ms" -> d.getOrElse("commitOffsets", 0.0),
      "planning_ms" -> d.getOrElse("queryPlanning", 0.0),
      "state_commit_ms" -> st.map(_.commitTimeMs.toDouble).getOrElse(0.0),
      "state_update_ms" -> st.map(_.allUpdatesTimeMs.toDouble).getOrElse(0.0),
      "state_bytes" -> st.map(_.memoryUsedBytes.toDouble).getOrElse(0.0),
      "shuffle_partitions" -> st.map(_.numShufflePartitions.toDouble).getOrElse(0.0),
    )
  }
}
