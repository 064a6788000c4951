package repro.core.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, SynthSpatial}
import repro.core.dits.OverlapHit
import scala.util.Random

/** All four baseline indexes answer OJSP identically to brute force, and
  * their update paths leave them equivalent to a fresh rebuild.
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
