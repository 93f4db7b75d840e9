package repro.baselines

import repro.core.{FreqSketch, SlidingQuantilePolicy}
import scala.collection.mutable.ArrayDeque

/** Exact sliding-window quantiles (paper §5.1, policy (1)).
  *
  * Extends Algorithm 1 with deaccumulation: the window's values live in a
  * [[FreqSketch]] frequency map (the paper's red-black tree, kept here as a
  * primitive hash table with the same key equality and order); on expiry the
  * expired value's frequency is decremented and its entry deleted when it
  * reaches zero. The sorted view behind `evaluate` and `rankInterval` is built
  * once per evaluation point, not per insert. A ring buffer preserves arrival
  * order so the oldest element is known at expiry time.
  */
final class ExactSliding(
    val windowSize: Long,
    val phis: Array[Double],
) extends SlidingQuantilePolicy {
  private val tree = new FreqSketch
  private val ring = new ArrayDeque[Double]((windowSize + 1).toInt)

  override def name: String = "Exact"

  override def insert(v: Double): Unit = {
    tree.accumulate(v)
    ring.append(v)
    if (ring.length > windowSize) tree.deaccumulate(ring.removeHead())
  }

  override def evaluate(): Array[Double] = {
    require(tree.count == windowSize, s"window not full: ${tree.count}/$windowSize")
    tree.computeResult(phis)
  }

  /** Exact rank interval of `v` within the current window (ground-truth
    * helper for measuring competitors' rank errors).
    */
  def rankInterval(v: Double): (Long, Long) = tree.rankInterval(v)

  override def observedSpace: Long = tree.observedSpace + ring.length

  override def analyticalSpace: Long = 3L * windowSize // value ring + {value,count} nodes
}
