package repro.core

import org.scalatest.funsuite.AnyFunSuite

class FreqSketchSpec extends AnyFunSuite {

  private def sketchOf(vs: Seq[Double]): FreqSketch = {
    val s = new FreqSketch
    vs.foreach(s.accumulate)
    s
  }

  test("count and unique tracking") {
    val s = sketchOf(Seq(1.0, 2.0, 2.0, 3.0, 3.0, 3.0))
    assert(s.count == 6)
    assert(s.uniqueCount == 3)
    assert(s.observedSpace == 6) // 3 nodes x {value, count}
  }

  test("computeResult matches sort-based exact quantiles (property)") {
    val rnd = new scala.util.Random(7)
    (1 to 50).foreach { trial =>
      val n = 1 + rnd.nextInt(500)
      val vs = Array.fill(n)(math.floor(rnd.nextDouble() * 50)) // many duplicates
      val s = sketchOf(vs.toSeq)
      val phis = Array(0.01, 0.25, 0.5, 0.9, 0.99, 1.0)
      val got = s.computeResult(phis)
      val want = phis.map(Stat.exactQuantile(vs, _))
      assert(got.sameElements(want), s"trial $trial: ${got.toSeq} vs ${want.toSeq}")
    }
  }

  test("computeResult handles unsorted phi input, results align with input order") {
    val s = sketchOf((1 to 100).map(_.toDouble))
    val got = s.computeResult(Array(0.9, 0.1, 0.5))
    assert(got.sameElements(Array(90.0, 10.0, 50.0)))
  }

  test("computeResult with duplicate phis") {
    val s = sketchOf((1 to 10).map(_.toDouble))
    val got = s.computeResult(Array(0.5, 0.5))
    assert(got.sameElements(Array(5.0, 5.0)))
  }

  test("computeResult on empty state fails") {
    intercept[IllegalArgumentException](new FreqSketch().computeResult(Array(0.5)))
  }

  test("single-value stream answers that value at every quantile") {
    val s = sketchOf(Seq.fill(1000)(42.0))
    assert(s.uniqueCount == 1)
    assert(s.computeResult(Array(0.001, 0.5, 0.999)).forall(_ == 42.0))
  }

  test("deaccumulate removes one occurrence and deletes empty nodes") {
    val s = sketchOf(Seq(1.0, 2.0, 2.0))
    s.deaccumulate(2.0)
    assert(s.count == 2 && s.uniqueCount == 2)
    s.deaccumulate(2.0)
    assert(s.count == 1 && s.uniqueCount == 1)
    intercept[IllegalArgumentException](s.deaccumulate(2.0))
  }

  test("accumulate/deaccumulate round-trip preserves quantiles") {
    val rnd = new scala.util.Random(8)
    val base = Array.fill(200)(rnd.nextInt(30).toDouble)
    val extra = Array.fill(100)(rnd.nextInt(30).toDouble)
    val s = sketchOf(base.toSeq)
    val before = s.computeResult(Array(0.25, 0.5, 0.75))
    extra.foreach(s.accumulate)
    extra.foreach(s.deaccumulate)
    assert(s.computeResult(Array(0.25, 0.5, 0.75)).sameElements(before))
  }

  test("rankInterval for present and absent values") {
    val s = sketchOf(Seq(1.0, 2.0, 2.0, 5.0))
    assert(s.rankInterval(1.0) == (1L, 1L))
    assert(s.rankInterval(2.0) == (2L, 3L))
    assert(s.rankInterval(5.0) == (4L, 4L))
    assert(s.rankInterval(3.0) == (3L, 4L)) // would sit between ranks 3 and 4
    assert(s.rankInterval(0.5) == (0L, 1L))
    assert(s.rankInterval(9.0) == (4L, 5L))
  }

  test("topValues expands multiplicities in descending order") {
    val s = sketchOf(Seq(1.0, 9.0, 9.0, 7.0, 3.0))
    assert(s.topValues(4).sameElements(Array(9.0, 9.0, 7.0, 3.0)))
    assert(s.topValues(100).length == 5)
    assert(s.topValues(0).isEmpty)
  }

  test("entries returns ascending (value, count) pairs") {
    val s = sketchOf(Seq(3.0, 1.0, 3.0))
    assert(s.entries.toSeq == Seq((1.0, 1L), (3.0, 2L)))
  }

  test("clear resets to initial state") {
    val s = sketchOf(Seq(1.0, 2.0))
    s.clear()
    assert(s.count == 0 && s.uniqueCount == 0)
    s.accumulate(5.0)
    assert(s.computeResult(Array(0.5)).sameElements(Array(5.0)))
  }

  test("Java serialization round-trip keeps every entry and stays usable") {
    val s = sketchOf((1 to 500).map(i => (i % 97).toDouble) ++ Seq(-0.0, 0.0, Double.NaN))
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(s)
    out.close()
    val in = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
    val r = in.readObject().asInstanceOf[FreqSketch]
    assert(r.count == s.count && r.uniqueCount == s.uniqueCount)
    assert(r.entries.map { case (v, c) => (java.lang.Double.doubleToLongBits(v), c) }.toSeq ==
      s.entries.map { case (v, c) => (java.lang.Double.doubleToLongBits(v), c) }.toSeq)
    r.accumulate(1000.0)
    r.deaccumulate(5.0)
    assert(r.topValues(1)(0).isNaN)
    assert(r.rankInterval(1000.0) == (r.count - 1, r.count - 1))
  }

  test("heavy duplication keeps space near constant") {
    val s = new FreqSketch
    (1 to 100000).foreach(i => s.accumulate((i % 7).toDouble))
    assert(s.uniqueCount == 7)
    assert(s.observedSpace == 14)
  }

  test("rankInterval sums are consistent with count (property)") {
    val rnd = new scala.util.Random(9)
    val vs = Array.fill(300)(rnd.nextInt(40).toDouble)
    val s = sketchOf(vs.toSeq)
    vs.distinct.foreach { v =>
      val (lo, hi) = s.rankInterval(v)
      val below = vs.count(_ < v)
      val at = vs.count(_ == v)
      assert(lo == below + 1 && hi == below + at, s"v=$v")
    }
  }
}
