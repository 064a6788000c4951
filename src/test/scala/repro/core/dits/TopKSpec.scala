package repro.core.dits

import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.LongTable

/** TopK, the one ranking kernel of the OJSP engines, keeps exactly what
  * sorting every offered hit by `OverlapHit.ordering` and taking k keeps.
  */
class TopKSpec extends AnyFunSuite {

  /** Distinct ids from the whole `Int` range, with small overlaps so many
    * hits tie, offered in any order; k from 1 to past the number of hits.
    */
  private val cases: Gen[(Seq[OverlapHit], Int)] = for {
    n <- Gen.frequency(1 -> Gen.const(0), 4 -> Gen.choose(1, 10), 2 -> Gen.choose(11, 200))
    ids <- Gen.containerOfN[Set, Int](n, Gen.frequency(
      1 -> Gen.oneOf(Int.MinValue, Int.MinValue + 1, -1, 0, 1, Int.MaxValue - 1, Int.MaxValue),
      3 -> Gen.choose(Int.MinValue, Int.MaxValue)))
    overlaps <- Gen.listOfN(ids.size, Gen.frequency(3 -> Gen.choose(1, 4), 1 -> Gen.choose(1, Int.MaxValue)))
    k <- Gen.frequency(3 -> Gen.choose(1, math.max(1, ids.size)), 1 -> Gen.choose(ids.size + 1, ids.size + 5))
  } yield (ids.toSeq.zip(overlaps).map { case (id, ov) => OverlapHit(id, ov) }, k)

  test("TopK ≡ sorted.take(k), also for k past the number of hits and from a LongTable of counts (property)") {
    val prop = Prop.forAll(cases) { case (hits, k) =>
      val exp = hits.sorted.take(k)
      val top = new TopK(k)
      hits.foreach(h => top.offer(h.overlap, h.id))
      val counts = new LongTable(0)
      hits.foreach(h => counts.add(h.id, h.overlap))
      val viaTable = TopK.of(counts, k)
      Prop(top.result == exp && viaTable.result == exp &&
           top.full == (hits.length >= k) && (!top.full || top.kth == exp.last.overlap)) :|
        s"k=$k got=${top.result} table=${viaTable.result} expected=$exp"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }

  test("TopK with k ≤ 0 keeps nothing") {
    for (k <- Seq(0, -1, Int.MinValue)) {
      val top = new TopK(k)
      top.offer(3, 1); top.offer(5, Int.MinValue)
      assert(top.result.isEmpty, s"k=$k")
    }
  }
}
