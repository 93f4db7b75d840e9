package repro.perfbench

import java.io.{BufferedWriter, File, FileWriter}
import scala.collection.mutable

/** In-memory span and counter store for the traced run. A span has a name,
  * start and end (`System.nanoTime`), the span that caused it, and the id of
  * the pass it belongs to. Nothing is written until [[writeJsonLines]].
  */
final class Tracer {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private var nameOf = new Array[Int](1024)
  private var parentOf = new Array[Int](1024)
  private var passOf = new Array[Int](1024)
  private var startOf = new Array[Long](1024)
  private var endOf = new Array[Long](1024)
  private var size = 0
  private val counters = mutable.LinkedHashMap.empty[String, Long]

  /** Pass id stamped on spans begun from now on. */
  var pass: Int = 0

  /** Open a span; returns its id (pass it as `parent` of nested spans, -1 for a root). */
  def begin(name: String, parent: Int): Int = {
    if (size == nameOf.length) grow()
    nameOf(size) = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })
    parentOf(size) = parent
    passOf(size) = pass
    endOf(size) = -1L
    startOf(size) = System.nanoTime()
    size += 1
    size - 1
  }

  def end(id: Int): Unit = endOf(id) = System.nanoTime()

  def add(counter: String, n: Long): Unit =
    counters(counter) = counters.getOrElse(counter, 0L) + n

  def counter(name: String): Long = counters.getOrElse(name, 0L)

  private def grow(): Unit = {
    val n = nameOf.length * 2
    nameOf = java.util.Arrays.copyOf(nameOf, n)
    parentOf = java.util.Arrays.copyOf(parentOf, n)
    passOf = java.util.Arrays.copyOf(passOf, n)
    startOf = java.util.Arrays.copyOf(startOf, n)
    endOf = java.util.Arrays.copyOf(endOf, n)
  }

  private def duration(i: Int): Long = {
    require(endOf(i) >= 0, s"span ${names(nameOf(i))} was never ended")
    endOf(i) - startOf(i)
  }

  /** Per span name: (number of spans, total ns, self ns). Self time is a
    * span's duration minus the durations of its direct children.
    */
  def summary: Map[String, (Int, Long, Long)] = {
    val childNs = new Array[Long](size)
    var i = 0
    while (i < size) {
      if (parentOf(i) >= 0) childNs(parentOf(i)) += duration(i)
      i += 1
    }
    val acc = mutable.HashMap.empty[String, (Int, Long, Long)]
    i = 0
    while (i < size) {
      val d = duration(i)
      val (c, t, s) = acc.getOrElse(names(nameOf(i)), (0, 0L, 0L))
      acc(names(nameOf(i))) = (c + 1, t + d, s + d - childNs(i))
      i += 1
    }
    acc.toMap
  }

  /** Every span as one JSON object per line, then the counters. */
  def writeJsonLines(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new BufferedWriter(new FileWriter(file))
    try {
      var i = 0
      while (i < size) {
        w.write(s"""{"id":$i,"name":"${names(nameOf(i))}","parent":${parentOf(i)},""" +
          s""""pass":${passOf(i)},"start_ns":${startOf(i)},"end_ns":${endOf(i)}}""")
        w.newLine()
        i += 1
      }
      counters.foreach { case (k, v) => w.write(s"""{"counter":"$k","value":$v}"""); w.newLine() }
    } finally w.close()
  }
}
