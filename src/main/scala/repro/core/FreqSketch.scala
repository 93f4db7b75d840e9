package repro.core

import java.io.{ObjectInputStream, ObjectOutputStream}
import java.lang.Double.{doubleToLongBits, longBitsToDouble}
import java.util.Arrays

/** Level-1 in-flight sub-window state (paper Algorithm 1).
  *
  * A frequency map `{value -> count}` over (optionally quantized) values. The
  * paper keeps it in a red-black tree; here it is an open-addressing hash
  * table of primitive keys (`doubleToLongBits`) and counts with linear
  * probing, so `accumulate` costs one hash probe and no allocation. The
  * sorted view Algorithm 1 traverses is built on demand, once per sealed
  * state, by one `Arrays.sort` over the distinct values, and serves
  * `computeResult`, `topValues`, `entries` and `rankInterval` until the state
  * changes.
  *
  * It answers exactly what the tree answers: `doubleToLongBits` equality is
  * the tree's `Double.compareTo` equality (-0.0 and 0.0 are distinct keys, all
  * NaNs are one key), and `Arrays.sort(double[])` is its order (-0.0 before
  * 0.0, NaN last). `observedSpace` still counts one {value, count} pair per
  * distinct value, the paper's "observed space", not the table's free slots.
  */
final class FreqSketch extends Serializable {
  // Slot i holds key bits keys(i) with frequency counts(i); counts(i) == 0
  // marks a free slot. The capacity is a power of two, at most half full.
  private var keys = new Array[Long](FreqSketch.InitialCapacity)
  private var counts = new Array[Long](FreqSketch.InitialCapacity)
  private var shift = 64 - Integer.numberOfTrailingZeros(FreqSketch.InitialCapacity)
  private var unique = 0
  private var total = 0L

  // Sorted view (a cache of the table, rebuilt after any change): distinct
  // values ascending and the running count up to and including each.
  @transient private var sortedValues: Array[Double] = _
  @transient private var cumCounts: Array[Long] = _

  /** Fibonacci hashing: the top bits of the product, because integer-valued
    * doubles leave the low bits of the key (and of a plain product) zero.
    */
  private def home(key: Long): Int = ((key * 0x9E3779B97F4A7C15L) >>> shift).toInt

  /** The slot holding `key`, or -1. */
  private def find(key: Long): Int = {
    val mask = keys.length - 1
    var i = home(key)
    while (counts(i) != 0) {
      if (keys(i) == key) return i
      i = (i + 1) & mask
    }
    -1
  }

  private def addKey(key: Long, count: Long): Unit = {
    val mask = keys.length - 1
    var i = home(key)
    while (counts(i) != 0) {
      if (keys(i) == key) { counts(i) += count; return }
      i = (i + 1) & mask
    }
    keys(i) = key
    counts(i) = count
    unique += 1
    if (2 * unique > keys.length) grow()
  }

  private def grow(): Unit = {
    val oldKeys = keys
    val oldCounts = counts
    keys = new Array[Long](2 * oldKeys.length)
    counts = new Array[Long](2 * oldKeys.length)
    shift -= 1
    unique = 0
    var i = 0
    while (i < oldKeys.length) {
      if (oldCounts(i) != 0) addKey(oldKeys(i), oldCounts(i))
      i += 1
    }
  }

  /** Accumulate one element (paper `Accumulate`). */
  def accumulate(v: Double): Unit = {
    addKey(doubleToLongBits(v), 1L)
    total += 1
    sortedValues = null
  }

  /** Accumulate every element of `other` (frequency-map union). */
  def addAll(other: FreqSketch): Unit = {
    var i = 0
    while (i < other.keys.length) {
      if (other.counts(i) != 0) addKey(other.keys(i), other.counts(i))
      i += 1
    }
    total += other.total
    sortedValues = null
  }

  /** Remove one occurrence of `v` (used by the Exact baseline's
    * deaccumulation); the entry is deleted when its frequency reaches zero.
    */
  def deaccumulate(v: Double): Unit = {
    val i = find(doubleToLongBits(v))
    require(i >= 0, s"deaccumulate of absent value $v")
    if (counts(i) > 1) counts(i) -= 1 else remove(i)
    total -= 1
    sortedValues = null
  }

  /** Backward-shift deletion: pull each later entry of the probe run into
    * the hole unless its home slot lies cyclically after the hole, so every
    * run stays unbroken without tombstones.
    */
  private def remove(slot: Int): Unit = {
    val mask = keys.length - 1
    var hole = slot
    var j = (slot + 1) & mask
    while (counts(j) != 0) {
      if (((j - home(keys(j))) & mask) >= ((j - hole) & mask)) {
        keys(hole) = keys(j)
        counts(hole) = counts(j)
        hole = j
      }
      j = (j + 1) & mask
    }
    counts(hole) = 0
    unique -= 1
  }

  /** Number of accumulated elements. */
  def count: Long = total

  /** Number of distinct values currently stored. */
  def uniqueCount: Int = unique

  /** Observed space in "variables": {value, count} per distinct value. */
  def observedSpace: Long = 2L * unique

  private def buildSortedView(): Unit = {
    val values = new Array[Double](unique)
    var n = 0
    var i = 0
    while (i < keys.length) {
      if (counts(i) != 0) { values(n) = longBitsToDouble(keys(i)); n += 1 }
      i += 1
    }
    Arrays.sort(values)
    val cum = new Array[Long](unique)
    var running = 0L
    i = 0
    while (i < unique) {
      running += counts(find(doubleToLongBits(values(i))))
      cum(i) = running
      i += 1
    }
    cumCounts = cum
    sortedValues = values
  }

  private def sortedView(): Array[Double] = {
    if (sortedValues == null) buildSortedView()
    sortedValues
  }

  /** Frequency of the `i`-th smallest distinct value (sorted view built). */
  private def countAt(i: Int): Long = cumCounts(i) - (if (i == 0) 0L else cumCounts(i - 1))

  /** Paper `ComputeResult`: exact φ-quantiles for all `phis`, each the
    * smallest value whose running count in ascending order reaches the rank
    * ⌈φ·count⌉. Results align with the input order of `phis`.
    */
  def computeResult(phis: Array[Double]): Array[Double] = {
    require(total > 0, "computeResult on empty state")
    val values = sortedView()
    val result = new Array[Double](phis.length)
    var q = 0
    while (q < phis.length) {
      val rank = Stat.rankOf(phis(q), total)
      require(rank <= total, "traversal ended before all quantiles answered")
      // first index whose running count reaches the rank
      var lo = 0
      var hi = values.length - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cumCounts(mid) >= rank) hi = mid else lo = mid + 1
      }
      result(q) = values(lo)
      q += 1
    }
    result
  }

  /** The rank interval `[minRank, maxRank]` (1-based, inclusive) occupied by
    * `v`, or the rank it *would* occupy if absent (a collapsed interval).
    * Used to measure rank error of an approximate answer.
    */
  def rankInterval(v: Double): (Long, Long) = {
    val values = sortedView()
    val idx = Arrays.binarySearch(values, v)
    if (idx >= 0) {
      val below = if (idx == 0) 0L else cumCounts(idx - 1)
      (below + 1, cumCounts(idx))
    } else {
      val ins = -idx - 1
      val below = if (ins == 0) 0L else cumCounts(ins - 1)
      (below, below + 1)
    }
  }

  /** The `m` largest elements (with multiplicity), descending. Ties are
    * expanded up to their frequency. Used to build few-k pools.
    */
  def topValues(m: Int): Array[Double] = {
    val values = sortedView()
    val out = new Array[Double](math.max(0, math.min(m.toLong, total).toInt))
    var n = 0
    var i = values.length - 1
    while (n < out.length) {
      var f = countAt(i)
      while (f > 0 && n < out.length) { out(n) = values(i); n += 1; f -= 1 }
      i -= 1
    }
    out
  }

  /** All (value, count) pairs in ascending value order. */
  def entries: Array[(Double, Long)] = {
    val values = sortedView()
    Array.tabulate(values.length)(i => (values(i), countAt(i)))
  }

  /** Reset to the initial state (paper `InitialState`), keeping the table's
    * capacity for the next sub-window.
    */
  def clear(): Unit = {
    Arrays.fill(counts, 0L)
    unique = 0
    total = 0
    sortedValues = null
  }

  // Java serialization (the streaming operator's state, the UDAF's shuffled
  // buffer) writes the {key, count} pairs only, so serialized state stays
  // proportional to the distinct values, not to the table's capacity.
  private def writeObject(out: ObjectOutputStream): Unit = {
    out.writeInt(unique)
    var i = 0
    while (i < keys.length) {
      if (counts(i) != 0) { out.writeLong(keys(i)); out.writeLong(counts(i)) }
      i += 1
    }
  }

  private def readObject(in: ObjectInputStream): Unit = {
    val n = in.readInt()
    var capacity = FreqSketch.InitialCapacity
    while (2 * n > capacity) capacity *= 2
    keys = new Array[Long](capacity)
    counts = new Array[Long](capacity)
    shift = 64 - Integer.numberOfTrailingZeros(capacity)
    var i = 0
    while (i < n) {
      val key = in.readLong()
      val c = in.readLong()
      addKey(key, c)
      total += c
      i += 1
    }
  }
}

object FreqSketch {
  private val InitialCapacity = 16
}
