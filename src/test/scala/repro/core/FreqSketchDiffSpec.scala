package repro.core

import java.lang.Double.doubleToLongBits
import java.util.{TreeMap => JTreeMap}
import org.scalacheck.{Arbitrary, Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Differential property: [[FreqSketch]] answers exactly what a frequency map
  * in a `java.util.TreeMap` (the paper's red-black tree) answers, over random
  * accumulate / addAll / deaccumulate / clear sequences.
  */
class FreqSketchDiffSpec extends AnyFunSuite {
  import FreqSketchDiffSpec._

  /** The reference: Algorithm 1 over a sorted tree of boxed keys. */
  private final class TreeSketch {
    val tree = new JTreeMap[java.lang.Double, java.lang.Long]()
    def add(v: Double, c: Long): Unit = tree.merge(v, c, (a, b) => a + b)
    def deaccumulate(v: Double): Unit = {
      val f = tree.get(v)
      if (f == 1L) tree.remove(v) else tree.put(v, f - 1)
    }
    def count: Long = tree.values.asScala.map(_.longValue).sum
    def computeResult(phis: Array[Double]): Array[Double] = phis.map { phi =>
      val rank = Stat.rankOf(phi, count)
      var running = 0L
      tree.entrySet.asScala.find { e => running += e.getValue; running >= rank }.get.getKey
    }
    def topValues(m: Int): Array[Double] =
      tree.descendingMap.entrySet.asScala.iterator
        .flatMap(e => Iterator.fill(e.getValue.toInt)(e.getKey.doubleValue)).take(m).toArray
    def rankInterval(v: Double): (Long, Long) = {
      val below = tree.headMap(v, false).values.asScala.map(_.longValue).sum
      val at = Option(tree.get(v)).map(_.longValue).getOrElse(0L)
      if (at > 0) (below + 1, below + at) else (below, below + 1)
    }
  }

  // Keys that share one home slot of the initial 16-slot table, so probe runs
  // form and deletes land inside them (any other hash still gets a valid test).
  private val colliding: IndexedSeq[Double] =
    Iterator.from(1).map(_.toDouble * 1000)
      .filter(v => ((doubleToLongBits(v) * 0x9E3779B97F4A7C15L) >>> 60) == 15L)
      .take(8).toIndexedSeq

  private val specials = Seq(0.0, -0.0, Double.NaN, Double.PositiveInfinity,
    Double.NegativeInfinity, Double.MinPositiveValue, Double.MaxValue, -Double.MaxValue)

  private val value: Gen[Double] = Gen.frequency(
    4 -> Gen.choose(0, 20).map(_.toDouble), // duplicate-heavy
    3 -> Gen.choose(-1000000L, 1000000L).map(_.toDouble * 4096), // integer-valued
    3 -> Gen.choose(-1e6, 1e6).map(Quantizer.quantize(_)), // quantized, many keys
    2 -> Gen.oneOf(colliding),
    2 -> Gen.oneOf(specials),
    1 -> Arbitrary.arbitrary[Double],
  )

  private val op: Gen[Op] = Gen.frequency(
    12 -> value.map(Acc),
    1 -> Gen.choose(0, 40).flatMap(Gen.listOfN(_, value)).map(AddAll),
    7 -> Gen.choose(0, Int.MaxValue).map(Deacc),
    1 -> Gen.const(Clear),
  )

  private val phases: Gen[List[List[Op]]] =
    Gen.choose(1, 5).flatMap(Gen.listOfN(_, Gen.choose(0, 300).flatMap(Gen.listOfN(_, op))))

  private val phis = Array(0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0)

  private def bits(vs: Array[Double]): Seq[Long] = vs.toSeq.map(doubleToLongBits)

  private def check(s: FreqSketch, ref: TreeSketch, probes: Seq[Double]): Unit = {
    assert(s.count == ref.count)
    assert(s.uniqueCount == ref.tree.size)
    assert(s.observedSpace == 2L * ref.tree.size)
    assert(s.entries.toSeq.map { case (v, c) => (doubleToLongBits(v), c) } ==
      ref.tree.entrySet.asScala.toSeq.map(e => (doubleToLongBits(e.getKey), e.getValue.longValue)))
    if (ref.count > 0) assert(bits(s.computeResult(phis)) == bits(ref.computeResult(phis)))
    else intercept[IllegalArgumentException](s.computeResult(phis))
    val total = ref.count.toInt
    Seq(0, 1, 7, total, total + 3).foreach { m =>
      assert(bits(s.topValues(m)) == bits(ref.topValues(m)), s"topValues($m)")
    }
    (ref.tree.keySet.asScala.toSeq.map(_.doubleValue) ++ probes).foreach { v =>
      assert(s.rankInterval(v) == ref.rankInterval(v), s"rankInterval($v)")
    }
  }

  test("FreqSketch equals a TreeMap frequency map after every phase (property)") {
    val prop = Prop.forAll(phases, Gen.listOfN(10, value)) { (ps, probes) =>
      val s = new FreqSketch
      val ref = new TreeSketch
      ps.foreach { phase =>
        phase.foreach {
          case Acc(v) => s.accumulate(v); ref.add(v, 1L)
          case AddAll(vs) =>
            val other = new FreqSketch
            vs.foreach(other.accumulate)
            s.addAll(other)
            vs.foreach(ref.add(_, 1L))
          case Deacc(pick) =>
            if (!ref.tree.isEmpty) {
              val keys = ref.tree.keySet.toArray(new Array[java.lang.Double](0))
              val v = keys(pick % keys.length).doubleValue
              s.deaccumulate(v)
              ref.deaccumulate(v)
            }
          case Clear => s.clear(); ref.tree.clear()
        }
        check(s, ref, probes ++ specials)
      }
      true
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
  }

  test("colliding keys stay findable after deletes inside their probe run") {
    assert(colliding.length == 8)
    val s = new FreqSketch
    val ref = new TreeSketch
    colliding.take(7).foreach { v => s.accumulate(v); ref.add(v, 1L) }
    Seq(1, 4, 0).foreach { i => s.deaccumulate(colliding(i)); ref.deaccumulate(colliding(i)) }
    check(s, ref, colliding)
  }
}

object FreqSketchDiffSpec {
  private sealed trait Op
  private final case class Acc(v: Double) extends Op
  private final case class AddAll(vs: List[Double]) extends Op
  private final case class Deacc(pick: Int) extends Op // pick-th present key, mod size
  private case object Clear extends Op
}
