package repro.perfbench

/** Minimal JSON rendering for run records and the result line. Numbers keep
  * all their digits; non-finite doubles become null.
  */
object Json {
  def render(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => render(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case a: Array[_] => render(a.toSeq)
    case xs: Iterable[_] => xs.iterator.map(render).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}

/** Evaluations checked against the driver operator's, per path. A failure
  * is an evaluation that is missing, extra or unequal.
  */
final class Gate {
  private val counts = scala.collection.mutable.LinkedHashMap.empty[String, Array[Long]]

  private def slot(path: String) = counts.getOrElseUpdate(path, new Array[Long](4))

  /** Compare `got` with `want` (both keyed by evaluation id). `exact`
    * demands bit-equality, otherwise the 1e-9 relative rule applies.
    */
  def check(path: String, got: Map[Long, Seq[Double]], want: Map[Long, Seq[Double]],
            exact: Boolean): Unit = {
    val s = slot(path)
    val ids = got.keySet ++ want.keySet
    ids.foreach { id =>
      s(0) += 1
      (got.get(id), want.get(id)) match {
        case (None, _) => s(1) += 1
        case (_, None) => s(2) += 1
        case (Some(g), Some(w)) =>
          val same = g.length == w.length && g.indices.forall { i =>
            if (exact) g(i) == w(i) else Stats.closeRel(g(i), w(i))
          }
          if (!same) s(3) += 1
      }
    }
  }

  def attempted: Long = counts.valuesIterator.map(_(0)).sum
  def failed: Long = counts.valuesIterator.map(s => s(1) + s(2) + s(3)).sum

  def record: Map[String, Map[String, Long]] = counts.map { case (p, s) =>
    p -> Map("attempted" -> s(0), "missing" -> s(1), "extra" -> s(2), "unequal" -> s(3))
  }.toMap
}
