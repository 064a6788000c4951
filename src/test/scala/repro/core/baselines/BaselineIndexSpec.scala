package repro.core.baselines

import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, SynthSpatial}
import repro.core.dits.OverlapHit
import scala.collection.mutable
import scala.util.Random

/** All four baseline indexes answer OJSP identically to brute force, and
  * their update paths leave them equivalent to a fresh rebuild. STS3 and
  * JOSIE, which share one posting index, also count their entries exactly.
  */
class BaselineIndexSpec extends AnyFunSuite {

  private val Span = 64

  private def randomDatasets(seed: Int, n: Int): IndexedSeq[(Int, Array[Long])] = {
    val rnd = new Random(seed)
    (0 until n).map { id =>
      val cx = rnd.nextInt(Span); val cy = rnd.nextInt(Span)
      id -> CellSet.of(Array.fill(1 + rnd.nextInt(25)) {
        val x = math.min(Span - 1, math.max(0, cx + rnd.nextInt(9) - 4))
        val y = math.min(Span - 1, math.max(0, cy + rnd.nextInt(9) - 4))
        Grid.interleave(x, y)
      })
    }
  }

  private def searchers(ds: IndexedSeq[(Int, Array[Long])])
      : Seq[(String, (Array[Long], Int) => Seq[OverlapHit])] = Seq(
    "QuadTree" -> QuadTreeIndex.build(ds, Span).overlapTopK _,
    "Rtree"    -> RTreeIndex.build(ds).overlapTopK _,
    "STS3"     -> Sts3Index.build(ds).overlapTopK _,
    "Josie"    -> JosieIndex.build(ds).overlapTopK _,
  )

  for (seed <- 0 until 8; k <- Seq(1, 5, 20)) {
    val ds = randomDatasets(seed, 45)
    val query = randomDatasets(seed + 400, 1).head._2
    val exp = BruteForce.overlapTopK(ds, query, k)
    for ((name, s) <- searchers(ds)) {
      test(s"$name matches brute force (seed=$seed, k=$k)") {
        assert(s(query, k) == exp)
      }
    }
  }

  for (seed <- 0 until 3) {
    val grid = Grid.world(9)
    val spec = SynthSpatial.testSources(1, 50, 40).head
    val ds = SynthSpatial.cellSource(spec, grid, seed = 42L + seed)
    val query = ds(seed * 3 % ds.length)._2
    val exp = BruteForce.overlapTopK(ds, query, 10)
    val routeSearchers: Seq[(String, (Array[Long], Int) => Seq[OverlapHit])] = Seq(
      "QuadTree" -> QuadTreeIndex.build(ds, grid.side).overlapTopK _,
      "Rtree"    -> RTreeIndex.build(ds).overlapTopK _,
      "STS3"     -> Sts3Index.build(ds).overlapTopK _,
      "Josie"    -> JosieIndex.build(ds).overlapTopK _,
    )
    for ((name, s) <- routeSearchers) {
      test(s"$name matches brute force on route data (seed=$seed)") {
        assert(s(query, 10) == exp)
      }
    }
  }

  test("QuadTree insert/update/remove ≡ rebuild") {
    val ds = randomDatasets(10, 30)
    val extra = randomDatasets(60, 10).map { case (id, cs) => (100 + id, cs) }
    val ix = QuadTreeIndex.build(ds, Span)
    extra.foreach { case (id, cs) => ix.insertDataset(id, cs) }
    val updated = randomDatasets(61, 5).map { case (i, cs) => (ds(i)._1, cs) }
    updated.foreach { case (id, cs) => ix.updateDataset(id, ds.toMap.apply(id), cs) }
    val current = (ds.toMap ++ updated.toMap ++ extra.toMap).toIndexedSeq
    val rebuilt = QuadTreeIndex.build(current, Span)
    val q = randomDatasets(62, 1).head._2
    assert(ix.overlapTopK(q, 15) == rebuilt.overlapTopK(q, 15))
  }

  test("Rtree insert/update/delete ≡ rebuild") {
    val ds = randomDatasets(11, 30)
    val extra = randomDatasets(63, 10).map { case (id, cs) => (100 + id, cs) }
    val ix = RTreeIndex.build(ds)
    extra.foreach { case (id, cs) => ix.insert(id, cs) }
    val updated = randomDatasets(64, 5).map { case (i, cs) => (ds(i)._1, cs) }
    updated.foreach { case (id, cs) => ix.update(id, cs) }
    ix.delete(ds(20)._1)
    val current = ((ds.toMap ++ updated.toMap ++ extra.toMap) - ds(20)._1).toIndexedSeq
    val rebuilt = RTreeIndex.build(current)
    val q = randomDatasets(65, 1).head._2
    assert(ix.overlapTopK(q, 15) == rebuilt.overlapTopK(q, 15))
  }

  test("STS3 insert/update/remove ≡ rebuild") {
    val ds = randomDatasets(12, 30)
    val byId = ds.toMap
    val ix = Sts3Index.build(ds)
    val extra = randomDatasets(66, 10).map { case (id, cs) => (100 + id, cs) }
    extra.foreach { case (id, cs) => ix.insert(id, cs) }
    val updated = randomDatasets(67, 5).map { case (i, cs) => (ds(i)._1, cs) }
    updated.foreach { case (id, cs) => ix.update(id, byId(id), cs) }
    ix.remove(ds(20)._1, updatedOr(byId, updated.toMap, ds(20)._1))
    val current = ((ds.toMap ++ updated.toMap ++ extra.toMap) - ds(20)._1).toIndexedSeq
    val rebuilt = Sts3Index.build(current)
    val q = randomDatasets(68, 1).head._2
    assert(ix.overlapTopK(q, 15) == rebuilt.overlapTopK(q, 15))
  }

  test("Josie insert/update/remove ≡ rebuild") {
    val ds = randomDatasets(13, 30)
    val byId = ds.toMap
    val ix = JosieIndex.build(ds)
    val extra = randomDatasets(69, 10).map { case (id, cs) => (100 + id, cs) }
    extra.foreach { case (id, cs) => ix.insert(id, cs) }
    val updated = randomDatasets(70, 5).map { case (i, cs) => (ds(i)._1, cs) }
    updated.foreach { case (id, cs) => ix.update(id, byId(id), cs) }
    ix.remove(ds(20)._1, updatedOr(byId, updated.toMap, ds(20)._1))
    val current = ((ds.toMap ++ updated.toMap ++ extra.toMap) - ds(20)._1).toIndexedSeq
    val rebuilt = JosieIndex.build(current)
    val q = randomDatasets(71, 1).head._2
    assert(ix.overlapTopK(q, 15) == rebuilt.overlapTopK(q, 15))
  }

  private sealed trait Write
  private case class Put(id: Int, cells: Array[Long]) extends Write
  /** Updates the live dataset at `pick`, to its own cells when `cells` is None. */
  private case class Change(pick: Int, cells: Option[Array[Long]]) extends Write
  private case class Drop(pick: Int) extends Write

  test("STS3 and JOSIE ≡ brute force and postingEntries ≡ live cells after random writes (property)") {
    // A 4×4 grid keeps lists short enough to empty; `hot` sits in most
    // datasets, so its list outgrows its initial room of three ids.
    val hot = Grid.interleave(0, 0)
    val universe = for (x <- 0 until 4; y <- 0 until 4) yield Grid.interleave(x, y)
    val ids = Gen.frequency(3 -> Gen.choose(Int.MinValue, Int.MaxValue),
      1 -> Gen.oneOf(Int.MinValue, Int.MinValue + 1, -1, 0, 1, Int.MaxValue - 1, Int.MaxValue))
    val cells = for {
      n <- Gen.choose(1, 5); cs <- Gen.listOfN(n, Gen.oneOf(universe)); withHot <- Gen.prob(0.6)
    } yield CellSet.of(if (withHot) hot :: cs else cs)
    val write: Gen[Write] = Gen.frequency(
      4 -> (for (id <- ids; cs <- cells) yield Put(id, cs)),
      2 -> (for (p <- Gen.choose(0, 99); same <- Gen.prob(0.3); cs <- cells)
            yield Change(p, if (same) None else Some(cs))),
      3 -> Gen.choose(0, 99).map(Drop))
    val writes = Gen.choose(1, 40).flatMap(Gen.listOfN(_, write))
    var hotCases, refillCases, sameCases, signCases = 0
    val prop = Prop.forAll(writes, Gen.listOfN(3, Gen.oneOf(universe))) { (ws, q) =>
      val sts3 = Sts3Index.build(Nil); val josie = JosieIndex.build(Nil)
      val live = mutable.TreeMap.empty[Int, Array[Long]]
      val held = mutable.Map.empty[Long, Int].withDefaultValue(0) // cell → live datasets holding it
      val emptied = mutable.Set.empty[Long]
      var overRoom, refilled, same = false
      def add(id: Int, cs: Array[Long]): Unit = {
        cs.foreach { c => refilled ||= emptied(c); held(c) += 1; overRoom ||= held(c) > 3 }
        live(id) = cs
      }
      def drop(id: Int): Unit = {
        live(id).foreach { c => held(c) -= 1; if (held(c) == 0) emptied += c }
        live -= id
      }
      def pick(p: Int): Int = live.keysIterator.drop(p % live.size).next()
      ws.foreach {
        case Put(id, cs) if !live.contains(id) =>
          sts3.insert(id, cs); josie.insert(id, cs); add(id, cs)
        case Change(p, cs) if live.nonEmpty =>
          val id = pick(p); val old = live(id); val now = cs.getOrElse(old)
          same ||= cs.isEmpty
          sts3.update(id, old, now); josie.update(id, old, now); drop(id); add(id, now)
        case Drop(p) if live.nonEmpty =>
          val id = pick(p)
          sts3.remove(id, live(id)); josie.remove(id, live(id)); drop(id)
        case _ => ()
      }
      if (overRoom) hotCases += 1
      if (refilled) refillCases += 1
      if (same) sameCases += 1
      if (live.nonEmpty && live.firstKey < 0 && live.lastKey >= 0) signCases += 1
      val entries = live.valuesIterator.map(_.length.toLong).sum
      val answers = for {
        query <- Seq(CellSet.of(universe), CellSet.of(q)); k <- Seq(1, 3, live.size + 1)
        exp = BruteForce.overlapTopK(live, query, k)
        (name, got) <- Seq("STS3" -> sts3.overlapTopK(query, k), "Josie" -> josie.overlapTopK(query, k))
      } yield Prop(got == exp) :| s"$name=$got brute=$exp k=$k |q|=${query.length}"
      val counted = Seq("STS3" -> sts3.postingEntries, "Josie" -> josie.postingEntries).map {
        case (name, n) => Prop(n == entries) :| s"$name postingEntries $n, live cells $entries"
      }
      Prop.all(counted ++ answers: _*)
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
    // Each required shape of input occurs in many of the 1,000 sequences.
    for ((shape, n) <- Seq("cell over initial room" -> hotCases, "emptied then refilled" -> refillCases,
                           "identical update" -> sameCases, "negative and non-negative ids" -> signCases))
      assert(n >= 100, s"$shape in only $n sequences")
  }

  private def updatedOr(orig: Map[Int, Array[Long]], upd: Map[Int, Array[Long]],
                        id: Int): Array[Long] = upd.getOrElse(id, orig(id))

  test("empty query returns empty everywhere") {
    val ds = randomDatasets(14, 10)
    for ((name, s) <- searchers(ds))
      assert(s(Array.emptyLongArray, 5).isEmpty, name)
  }

  test("Josie early termination still returns exact counts under skew") {
    // One very frequent cell + rare discriminative cells stresses the
    // prefix filter.
    val hot = Grid.interleave(1, 1)
    val ds = (0 until 30).map { id =>
      id -> CellSet.of(hot +: Array.tabulate(id % 5)(j => Grid.interleave(10 + id, 10 + j)))
    }
    val ix = JosieIndex.build(ds)
    val query = CellSet.of(hot +: Array.tabulate(4)(j => Grid.interleave(10 + 7, 10 + j)))
    assert(ix.overlapTopK(query, 5) == BruteForce.overlapTopK(ds, query, 5))
  }

  test("Josie early termination keeps an unseen dataset that ties the k-th with a smaller id") {
    // Q = {a, b}, both cells equally rare; dataset 5 = {a} is counted first.
    // After cell a the k-th overlap (1) only ties what dataset 1 = {b} can
    // still reach, and the tie goes to the smaller id.
    val a = Grid.interleave(0, 0); val b = Grid.interleave(1, 0)
    val ds = IndexedSeq(5 -> Array(a), 1 -> Array(b))
    val query = CellSet.of(Seq(a, b))
    assert(BruteForce.overlapTopK(ds, query, 1) == Seq(OverlapHit(1, 1)))
    assert(JosieIndex.build(ds).overlapTopK(query, 1) == Seq(OverlapHit(1, 1)))
  }
}
