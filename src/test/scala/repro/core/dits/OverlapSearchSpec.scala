package repro.core.dits

import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, MBR, SynthSpatial}
import repro.core.baselines.{BruteForce, JosieIndex, QuadTreeIndex, RTreeIndex, Sts3Index}
import scala.collection.mutable
import scala.util.Random

/** OverlapSearch (Algorithm 2) returns exactly the brute-force OJSP
  * answer across instance shapes, k, f, and θ, also after Appendix C
  * updates; the baselines are held to the same answers under the same
  * updates.
  */
class OverlapSearchSpec extends AnyFunSuite {
  import OverlapSearchSpec._


  private def randomDatasets(seed: Int, n: Int, span: Int = 64): IndexedSeq[(Int, Array[Long])] = {
    val rnd = new Random(seed)
    (0 until n).map { id =>
      val cx = rnd.nextInt(span); val cy = rnd.nextInt(span)
      id -> CellSet.of(Array.fill(1 + rnd.nextInt(30)) {
        val x = math.min(span - 1, math.max(0, cx + rnd.nextInt(9) - 4))
        val y = math.min(span - 1, math.max(0, cy + rnd.nextInt(9) - 4))
        Grid.interleave(x, y)
      })
    }
  }

  for (seed <- 0 until 10; k <- Seq(1, 5, 15); f <- Seq(3, 10)) {
    test(s"matches brute force (seed=$seed, k=$k, f=$f)") {
      val ds = randomDatasets(seed, 50)
      val ix = DitsLocal.build(ds, f)
      val query = randomDatasets(seed + 1000, 1).head._2
      val got = OverlapSearch.search(ix, query, k)
      val exp = BruteForce.overlapTopK(ds, query, k)
      assert(got == exp, s"got=$got exp=$exp")
    }
  }

  for (theta <- Seq(8, 10, 12); seed <- 0 until 3) {
    test(s"matches brute force on route data (θ=$theta, seed=$seed)") {
      val spec = SynthSpatial.testSources(1, 60, 50).head
      val ds = SynthSpatial.cellSource(spec, Grid.world(theta), seed = 42L + seed)
      val ix = DitsLocal.build(ds, 10)
      val query = ds(seed * 7 % ds.length)._2
      assert(OverlapSearch.search(ix, query, 10) == BruteForce.overlapTopK(ds, query, 10))
    }
  }

  test("query identical to one dataset ranks it first with full overlap") {
    val ds = randomDatasets(3, 40)
    val ix = DitsLocal.build(ds, 5)
    val (qid, qcells) = ds(17)
    val hits = OverlapSearch.search(ix, qcells, 5)
    assert(hits.head.id == qid || hits.head.overlap == qcells.length)
    assert(hits.head.overlap == qcells.length)
  }

  test("disjoint query returns no hits") {
    val ds = randomDatasets(4, 30, span = 32)
    val ix = DitsLocal.build(ds, 5)
    // Far-away query: cells at the opposite corner of a much larger grid.
    val q = CellSet.of(Seq(Grid.interleave(500, 500), Grid.interleave(501, 501)))
    assert(OverlapSearch.search(ix, q, 10).isEmpty)
  }

  test("k larger than candidate count returns every overlapping dataset") {
    val ds = randomDatasets(5, 20)
    val ix = DitsLocal.build(ds, 4)
    val query = ds.head._2
    val got = OverlapSearch.search(ix, query, 1000)
    val exp = BruteForce.overlapTopK(ds, query, 1000)
    assert(got == exp)
    assert(got.forall(_.overlap > 0))
  }

  test("empty query yields empty result") {
    val ds = randomDatasets(6, 10)
    val ix = DitsLocal.build(ds, 4)
    assert(OverlapSearch.search(ix, Array.emptyLongArray, 5).isEmpty)
  }

  test("results are sorted by overlap desc then id asc") {
    val ds = randomDatasets(7, 60)
    val ix = DitsLocal.build(ds, 8)
    val query = ds(3)._2
    val hits = OverlapSearch.search(ix, query, 20)
    val resorted = hits.sortBy(h => (-h.overlap, h.id))
    assert(hits == resorted)
  }

  test("k must be positive") {
    val ds = randomDatasets(8, 5)
    val ix = DitsLocal.build(ds, 4)
    intercept[IllegalArgumentException](OverlapSearch.search(ix, ds.head._2, 0))
  }

  /** Tiny grids and few cells (so overlaps tie at the k boundary), copies
    * of indexed datasets under other ids, ids in shuffled order, runs of
    * writes that may empty the index, and k at 1, n and beyond n.
    */
  private val scenarios: Gen[Scenario] = for {
    span <- Gen.oneOf(2, 4, 8, 16)
    cell = Gen.zip(Gen.choose(0, span - 1), Gen.choose(0, span - 1)).map { case (x, y) => Grid.interleave(x, y) }
    cells = Gen.choose(1, 6).flatMap(Gen.listOfN(_, cell)).map(CellSet.of(_))
    copyOf = Gen.frequency(3 -> Gen.const(-1), 1 -> Gen.choose(0, 20))
    n <- Gen.choose(1, 14)
    ids <- Gen.pick(n, 0 until 40)
    idOrder <- Gen.long
    fresh <- Gen.listOfN(n, cells)
    copies <- Gen.listOfN(n, copyOf)
    writes <- Gen.choose(0, 16).flatMap(Gen.listOfN(_, Gen.frequency(
      2 -> Gen.zip(cells, copyOf).map { case (cs, c) => Insert(cs, c) },
      3 -> Gen.zip(Gen.choose(0, 40), cells, copyOf).map { case (p, cs, c) => Update(p, cs, c) },
      2 -> Gen.choose(0, 40).map(Delete(_)))))
    qSize <- Gen.frequency(1 -> Gen.const(0), 9 -> Gen.choose(1, 8))
    query <- Gen.listOfN(qSize, cell)
    kOf <- Gen.oneOf(0, 1, 2)
    capacity <- Gen.oneOf(2, 3, 5)
  } yield {
    val cs = fresh.toArray
    for (i <- 0 until n if copies(i) >= 0 && copies(i) < i) cs(i) = cs(copies(i))
    val shuffled = new Random(idOrder).shuffle(ids.toIndexedSeq)
    Scenario(shuffled.zip(cs), writes, CellSet.of(query), kOf, capacity, span)
  }

  /** The index's leaves each hold the flat index rebuilt from their
    * children, and `postingEntries` counts every child cell once.
    * `nodeCount`, `size`, `postingEntries` and `datasets` also equal a
    * recursive recount of the tree.
    */
  private def checkLeaves(ix: DitsLocal): Unit = {
    ix.root.leaves.foreach { l => DitsLocalSpec.assertFlatIndex(l); DitsLocalSpec.assertKeysInRect(l) }
    assert(ix.postingEntries == ix.datasets.map(_.cells.length.toLong).sum)
    // (nodes, datasets left to right, posting entries) of a subtree
    def recount(n: TreeNode): (Int, List[DatasetNode], Long) = n match {
      case l: Leaf => (1, l.children.toList, l.children.map(_.cells.length.toLong).sum)
      case i: Internal =>
        val (ln, ld, lp) = recount(i.left); val (rn, rd, rp) = recount(i.right)
        (1 + ln + rn, ld ++ rd, lp + rp)
    }
    val (nodes, ds, postings) = recount(ix.root)
    assert(ix.nodeCount == nodes, "nodeCount")
    assert(ix.size == ds.length, "size")
    assert(ix.postingEntries == postings, "postingEntries")
    assert(ix.datasets.toList == ds, "datasets")
  }

  test("OverlapSearch and the baselines ≡ brute force after random writes (property)") {
    val prop = Prop.forAll(scenarios) { sc =>
      val ix = DitsLocal.build(sc.ds, sc.capacity)
      val quad = QuadTreeIndex.build(sc.ds, sc.span)
      val rtree = RTreeIndex.build(sc.ds)
      val sts3 = Sts3Index.build(sc.ds)
      val josie = JosieIndex.build(sc.ds)
      checkLeaves(ix)
      val live = mutable.TreeMap(sc.ds: _*)
      def cellsOf(fresh: Array[Long], copyOf: Int): Array[Long] =
        if (copyOf >= 0 && live.nonEmpty) live.valuesIterator.drop(copyOf % live.size).next() else fresh
      sc.writes.foreach { w =>
        w match {
          case Insert(fresh, c) =>
            val cs = cellsOf(fresh, c)
            val id = Iterator.from(0).find(!live.contains(_)).get
            ix.insert(DatasetNode(id, cs)); quad.insertDataset(id, cs); rtree.insert(id, cs)
            sts3.insert(id, cs); josie.insert(id, cs)
            live(id) = cs
          case _ if live.isEmpty => ()
          case Update(p, fresh, c) =>
            val cs = cellsOf(fresh, c)
            val id = live.keysIterator.drop(p % live.size).next()
            val old = live(id)
            ix.update(DatasetNode(id, cs)); quad.updateDataset(id, old, cs); rtree.update(id, cs)
            sts3.update(id, old, cs); josie.update(id, old, cs)
            live(id) = cs
          case Delete(p) =>
            val id = live.keysIterator.drop(p % live.size).next()
            val old = live(id)
            ix.delete(id); quad.removeDataset(id, old); rtree.delete(id)
            sts3.remove(id, old); josie.remove(id, old)
            live -= id
        }
        checkLeaves(ix)
      }
      val k = Seq(1, math.max(1, live.size), live.size + 3)(sc.kOf)
      val exp = BruteForce.overlapTopK(live, sc.query, k)
      val engines = Seq(
        "DITS"     -> OverlapSearch.search(ix, sc.query, k),
        "QuadTree" -> quad.overlapTopK(sc.query, k),
        "Rtree"    -> rtree.overlapTopK(sc.query, k),
        "STS3"     -> sts3.overlapTopK(sc.query, k),
        "Josie"    -> josie.overlapTopK(sc.query, k))
      Prop.all(engines.map { case (name, got) => Prop(got == exp) :| s"$name=$got brute=$exp k=$k" }: _*)
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }

  /** Tiny grids of side 2^θ, θ ∈ {2, 3, 4}: part of one 64-cell tile,
    * exactly one tile, and four tiles. Cells often sit on bits 0 and 63 of
    * their tile, and leaves of 2–4 datasets cut the query's tiles at their
    * rect edges. The writes are fresh inserts, updates and deletes.
    */
  private val tileScenarios: Gen[Scenario] = for {
    theta <- Gen.oneOf(2, 3, 4)
    span = 1 << theta
    any = Gen.zip(Gen.choose(0, span - 1), Gen.choose(0, span - 1))
    // Bit 0 (low corner) or bit 63 (high corner) of one tile, when the grid has it.
    corner = Gen.zip(Gen.choose(0, (span - 1) / 8), Gen.choose(0, (span - 1) / 8), Gen.oneOf(0, 7)).map {
      case (tx, ty, o) => (math.min(span - 1, 8 * tx + o), math.min(span - 1, 8 * ty + o))
    }
    cell = Gen.frequency(3 -> any, 1 -> corner).map { case (x, y) => Grid.interleave(x, y) }
    cells = Gen.choose(1, 8).flatMap(Gen.listOfN(_, cell)).map(CellSet.of(_))
    n <- Gen.choose(1, 12)
    fresh <- Gen.listOfN(n, cells)
    writes <- Gen.choose(0, 12).flatMap(Gen.listOfN(_, Gen.frequency(
      2 -> cells.map(Insert(_, -1)),
      2 -> Gen.zip(Gen.choose(0, 40), cells).map { case (p, cs) => Update(p, cs, -1) },
      2 -> Gen.choose(0, 40).map(Delete(_)))))
    qSize <- Gen.choose(1, 24)
    query <- Gen.listOfN(qSize, cell)
    kOf <- Gen.oneOf(0, 1, 2)
    capacity <- Gen.oneOf(2, 3, 4)
  } yield Scenario(fresh.indices.zip(fresh), writes, CellSet.of(query), kOf, capacity, span)

  test("bounds, verification and search ≡ brute force when query tiles straddle leaf rects (property)") {
    var straddling = 0 // query tiles with cells both inside and outside a leaf's rect
    var cornerHits = 0 // query cells on bit 0 or 63 of their tile found in a leaf
    val prop = Prop.forAll(tileScenarios) { sc =>
      val ix = DitsLocal.build(sc.ds, sc.capacity)
      val live = mutable.TreeMap(sc.ds: _*)
      sc.writes.foreach {
        case Insert(cs, _) =>
          val id = Iterator.from(0).find(!live.contains(_)).get
          ix.insert(DatasetNode(id, cs)); live(id) = cs
        case _ if live.isEmpty => ()
        case Update(p, cs, _) =>
          val id = live.keysIterator.drop(p % live.size).next()
          ix.update(DatasetNode(id, cs)); live(id) = cs
        case Delete(p) =>
          val id = live.keysIterator.drop(p % live.size).next()
          ix.delete(id); live -= id
      }
      val q = sc.query
      val perLeaf = ix.root.leaves.toList.zipWithIndex.map { case (leaf, l) =>
        val held = leaf.children.map(_.cells)
        val ub = q.count(c => held.exists(_.contains(c)))
        val lb = if (held.isEmpty) 0 else q.count(c => held.forall(_.contains(c)))
        val counts = leaf.children.map(d => d.id -> CellSet.intersectionSize(d.cells, q)).filter(_._2 > 0).toMap
        val r = leaf.rect
        def inRect(c: Long): Boolean = {
          val x = Grid.cellX(c); val y = Grid.cellY(c)
          x >= r.minX && x < r.maxX && y >= r.minY && y < r.maxY
        }
        straddling += q.groupBy(CellSet.tileOf).values.count(run => run.exists(inRect) && !run.forall(inRect))
        cornerHits += q.count(c => (c & 63) % 63 == 0 && held.exists(_.contains(c)))
        Prop.all(
          Prop(OverlapSearch.upperBound(leaf, q) == ub) :| s"leaf $l upperBound ${OverlapSearch.upperBound(leaf, q)} != $ub",
          Prop(OverlapSearch.lowerBound(leaf, q) == lb) :| s"leaf $l lowerBound ${OverlapSearch.lowerBound(leaf, q)} != $lb",
          Prop(OverlapSearch.verifyLeaf(leaf, q) == counts) :| s"leaf $l verifyLeaf ${OverlapSearch.verifyLeaf(leaf, q)} != $counts")
      }
      val k = Seq(1, math.max(1, live.size), live.size + 3)(sc.kOf)
      val got = OverlapSearch.search(ix, q, k); val exp = BruteForce.overlapTopK(live, q, k)
      Prop.all(perLeaf :+ (Prop(got == exp) :| s"search=$got brute=$exp k=$k"): _*)
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
    assert(straddling > 100 && cornerHits > 100, s"straddling tiles $straddling, corner hits $cornerHits")
  }

  test("ties at the k boundary go to the smaller id across the whole Int range") {
    val a = CellSet.of(Seq(Grid.interleave(1, 1), Grid.interleave(2, 2)))
    val b = CellSet.of(Seq(Grid.interleave(1, 1)))
    val ids = Seq(Int.MaxValue, 0, -1, Int.MinValue, 7, Int.MaxValue - 1)
    val ds = ids.zipWithIndex.map { case (id, i) => id -> (if (i % 2 == 0) a else b) }
    for (f <- Seq(2, 6); k <- 1 to ids.length + 1) {
      val got = OverlapSearch.search(DitsLocal.build(ds, f), a, k)
      assert(got == BruteForce.overlapTopK(ds, a, k), s"f=$f k=$k")
    }
  }

  test("the four baselines break ties at the k boundary to the smaller id across the whole Int range") {
    val a = CellSet.of(Seq(Grid.interleave(1, 1), Grid.interleave(2, 2)))
    val b = CellSet.of(Seq(Grid.interleave(1, 1)))
    val ids = Seq(Int.MaxValue, 0, -1, Int.MinValue, 7, Int.MaxValue - 1, Int.MinValue + 1)
    val ds = ids.zipWithIndex.map { case (id, i) => id -> (if (i % 2 == 0) a else b) }
    val engines = Seq(
      "QuadTree" -> QuadTreeIndex.build(ds, 4).overlapTopK _,
      "Rtree"    -> RTreeIndex.build(ds, 2).overlapTopK _,
      "STS3"     -> Sts3Index.build(ds).overlapTopK _,
      "Josie"    -> JosieIndex.build(ds).overlapTopK _)
    for (k <- 1 to ids.length + 1; q <- Seq(a, b); (name, search) <- engines)
      assert(search(q, k) == BruteForce.overlapTopK(ds, q, k), s"$name k=$k |q|=${q.length}")
  }

  test("all five OJSP engines reject k ≤ 0, for a non-empty and an empty query") {
    val ds = randomDatasets(9, 6)
    val engines = Seq(
      "DITS"     -> ((q: Array[Long], k: Int) => OverlapSearch.search(DitsLocal.build(ds, 4), q, k)),
      "QuadTree" -> QuadTreeIndex.build(ds, 64).overlapTopK _,
      "Rtree"    -> RTreeIndex.build(ds, 2).overlapTopK _,
      "STS3"     -> Sts3Index.build(ds).overlapTopK _,
      "Josie"    -> JosieIndex.build(ds).overlapTopK _)
    for (k <- Seq(0, -1); q <- Seq(ds.head._2, Array.emptyLongArray); (name, search) <- engines)
      withClue(s"$name k=$k |q|=${q.length}: ")(intercept[IllegalArgumentException](search(q, k)))
  }

  test("bounds and verification count query cells at both ends of a leaf's key range") {
    val a = CellSet.of(Seq(Grid.interleave(1, 1), Grid.interleave(2, 2), Grid.interleave(3, 3)))
    val b = CellSet.of(Seq(Grid.interleave(2, 2), Grid.interleave(3, 3), Grid.interleave(4, 4)))
    val leaf = DitsLocal.build(Seq(0 -> a, 1 -> b), 4).root.leaves.next()
    val q = CellSet.of(Seq(Grid.interleave(0, 0), Grid.interleave(2, 2), Grid.interleave(3, 3),
                           Grid.interleave(4, 4), Grid.interleave(9, 9)))
    assert(OverlapSearch.upperBound(leaf, q) == 3)
    assert(OverlapSearch.lowerBound(leaf, q) == 2)
    assert(OverlapSearch.verifyLeaf(leaf, q) == Map(0 -> 2, 1 -> 3))
  }

  test("query hits on a leaf's min and max row and column count, after a delete shrinks its rect and an insert grows it") {
    def at(xys: (Int, Int)*): Array[Long] = CellSet.of(xys.map { case (x, y) => Grid.interleave(x, y) })
    // Dataset 0 has one cell on each side of its rect [2, 6) × [2, 6):
    // the min column, the max column, the min row and the max row.
    val sides = at((2, 4), (5, 3), (3, 2), (4, 5))
    val live = mutable.TreeMap(0 -> sides, 1 -> at((0, 0), (9, 9)), 2 -> at((3, 3)))
    val ix = DitsLocal.build(live.toSeq, 4)
    def check(rect: MBR, q: Array[Long], ub: Int, counts: Map[Int, Int]): Unit = {
      val leaf = ix.root.leaves.next()
      assert(leaf.rect == rect)
      DitsLocalSpec.assertKeysInRect(leaf)
      assert(OverlapSearch.upperBound(leaf, q) == ub)
      assert(OverlapSearch.verifyLeaf(leaf, q) == counts)
      for (k <- 1 to 4) assert(OverlapSearch.search(ix, q, k) == BruteForce.overlapTopK(live, q, k), s"k=$k")
    }
    // Cells just outside the shrunk rect, on all four sides.
    val around = at((1, 3), (6, 4), (4, 1), (3, 6))
    ix.delete(1); live -= 1
    check(MBR(2, 2, 6, 6), CellSet.union(sides, around), 4, Map(0 -> 4))
    // The new dataset sets the min and max row and column of the grown rect.
    val corners = at((1, 7), (8, 0))
    ix.insert(DatasetNode(3, corners)); live(3) = corners
    check(MBR(1, 0, 9, 8), CellSet.union(CellSet.union(sides, around), corners), 6, Map(0 -> 4, 3 -> 2))
  }
}

object OverlapSearchSpec {
  /** One write: `Insert` adds a fresh id, `Update` and `Delete` act on the
    * `pick`-th indexed id (mod size); cells are a new set or, when `copyOf`
    * ≥ 0, a copy of the `copyOf`-th indexed dataset.
    */
  sealed trait Write
  final case class Insert(cells: Array[Long], copyOf: Int) extends Write
  final case class Update(pick: Int, cells: Array[Long], copyOf: Int) extends Write
  final case class Delete(pick: Int) extends Write

  /** A generated OJSP instance; arrays print as cell coordinates. */
  final case class Scenario(ds: IndexedSeq[(Int, Array[Long])], writes: List[Write],
                            query: Array[Long], kOf: Int, capacity: Int, span: Int) {
    private def show(cs: Array[Long]) = cs.map(c => (Grid.cellX(c), Grid.cellY(c))).mkString("{", " ", "}")
    override def toString: String =
      s"span=$span f=$capacity k-choice=$kOf query=${show(query)} " +
        ds.map { case (id, cs) => s"$id:${show(cs)}" }.mkString(" ") + " writes=" +
        writes.map {
          case Insert(cs, c)    => s"I(${show(cs)},$c)"
          case Update(p, cs, c) => s"U($p,${show(cs)},$c)"
          case Delete(p)        => s"D($p)"
        }.mkString(" ")
  }
}
