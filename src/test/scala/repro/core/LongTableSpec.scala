package repro.core

import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** LongTable, the primitive hash table under `Cover`, CoverageSearch's
  * pooled ids and the baselines' overlap counts, behaves as a
  * `mutable.HashMap[Long, Long]` whose absent keys read as 0.
  */
class LongTableSpec extends AnyFunSuite {
  import LongTableSpec._

  /** Keys at the edges a caller can hand in (−1, 0, widened `Int.MinValue`,
    * `Long.MaxValue`, two ints packed as (hi:32|lo:32) with a negative
    * half), a small range so keys repeat and collide, and any other long.
    */
  private val keys: Gen[Long] = Gen.frequency(
    3 -> Gen.oneOf(-1L, 0L, Int.MinValue.toLong, Int.MaxValue.toLong, Long.MaxValue, Long.MinValue + 1),
    3 -> Gen.zip(Gen.choose(-2, 2), Gen.choose(-2, 2)).map { case (bx, by) =>
      (bx.toLong << 32) | (by.toLong & 0xffffffffL) },
    4 -> Gen.choose(-50L, 50L),
    2 -> Gen.choose(Long.MinValue + 1, Long.MaxValue))

  private val ops: Gen[List[Op]] = Gen.choose(0, 300).flatMap(Gen.listOfN(_, Gen.frequency(
    3 -> Gen.zip(keys, Gen.choose(Long.MinValue, Long.MaxValue)).map(Put.tupled),
    3 -> Gen.zip(keys, Gen.choose(-3L, 3L)).map(Add.tupled),
    2 -> keys.map(Find))))

  test("LongTable ≡ mutable.HashMap[Long, Long] over random put/add/find, growing from the smallest size (property)") {
    val prop = Prop.forAll(Gen.oneOf(0, 1, 2, 5, 64), ops) { (expected, ops) =>
      val t = new LongTable(expected)
      val ref = mutable.HashMap.empty[Long, Long]
      val bad = ops.zipWithIndex.collect(Function.unlift { case (op, i) =>
        val ok = op match {
          case Put(key, v) =>
            val s = t.insert(key); t.setValue(s, v); ref(key) = v
            t.value(t.find(key)) == v
          case Add(key, delta) =>
            t.add(key, delta); ref(key) = ref.getOrElse(key, 0L) + delta
            t.value(t.find(key)) == ref(key)
          case Find(key) =>
            val s = t.find(key)
            if (ref.contains(key)) s >= 0 && t.value(s) == ref(key) else s == -1
        }
        if (ok && t.size == ref.size) None else Some(s"op $i: $op")
      })
      val seen = mutable.HashMap.empty[Long, Long]
      t.foreach((k, v) => seen(k) = v)
      Prop(bad.isEmpty && seen == ref && ref.forall { case (k, v) => t.value(t.find(k)) == v }) :|
        s"expected=$expected bad=${bad.take(3)} |seen|=${seen.size} |ref|=${ref.size}"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status.toString)
  }

  test("Long.MinValue marks an empty slot: it is never found and cannot be inserted") {
    val t = new LongTable(0)
    assert(t.find(Long.MinValue) == -1)
    Seq(0L, -1L, Long.MaxValue).foreach(t.insert)
    assert(t.find(Long.MinValue) == -1)
    assertThrows[IllegalArgumentException](t.insert(Long.MinValue))
    assert(t.size == 3)
  }
}

object LongTableSpec {
  private sealed trait Op
  private final case class Put(key: Long, v: Long) extends Op
  private final case class Add(key: Long, delta: Long) extends Op
  private final case class Find(key: Long) extends Op
}
