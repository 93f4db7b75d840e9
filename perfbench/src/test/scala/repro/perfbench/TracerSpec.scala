package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TracerSpec extends AnyFunSuite {

  test("self time is duration minus direct children, counts per name") {
    val t = new Tracer
    val root = t.begin("root", -1)
    val a = t.begin("child", root); Thread.sleep(5); t.end(a)
    val b = t.begin("child", root)
    val c = t.begin("grandchild", b); Thread.sleep(5); t.end(c)
    t.end(b)
    t.end(root)
    val s = t.summary
    assert(s("child")._1 == 2)
    assert(s("root")._2 >= s("child")._2)
    assert(s("root")._3 == s("root")._2 - s("child")._2)
    assert(s("child")._3 == s("child")._2 - s("grandchild")._2)
    assert(s("grandchild")._3 == s("grandchild")._2)
  }

  test("counters accumulate") {
    val t = new Tracer
    t.add("x", 2); t.add("x", 3)
    assert(t.counter("x") == 5 && t.counter("absent") == 0)
  }
}
