package repro.core.dits

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, SynthSpatial}
import scala.util.Random

/** Structural invariants of the DITS-L construction (Algorithm 1) and the
  * Appendix C update operations.
  */
class DitsLocalSpec extends AnyFunSuite {

  private def randomDatasets(seed: Int, n: Int, cellsEach: Int = 20,
                             span: Int = 64): IndexedSeq[(Int, Array[Long])] = {
    val rnd = new Random(seed)
    (0 until n).map { id =>
      // Clustered so MBRs are informative: pick a centre, scatter around it.
      val cx = rnd.nextInt(span); val cy = rnd.nextInt(span)
      id -> CellSet.of(Array.fill(1 + rnd.nextInt(cellsEach)) {
        val x = math.min(span - 1, math.max(0, cx + rnd.nextInt(7) - 3))
        val y = math.min(span - 1, math.max(0, cy + rnd.nextInt(7) - 3))
        Grid.interleave(x, y)
      })
    }
  }

  private def checkInvariants(ix: DitsLocal, expect: Map[Int, Array[Long]]): Unit = {
    // Every dataset present exactly once.
    val ids = ix.datasets.map(_.id).toSeq
    assert(ids.sorted == expect.keys.toSeq.sorted)
    assert(ids.distinct.length == ids.length)
    // Leaf capacity respected; inverted index consistent with children.
    ix.root.leaves.foreach { leaf =>
      assert(leaf.children.length <= ix.capacity,
             s"leaf holds ${leaf.children.length} > f=${ix.capacity}")
      DitsLocalSpec.assertFlatIndex(leaf)
      DitsLocalSpec.assertKeysInRect(leaf)
    }
    assert(ix.postingEntries == ix.datasets.map(_.cells.length.toLong).sum)
    // MBR containment along parent pointers and cell sets match.
    ix.datasets.foreach { d =>
      assert(d.cells.sameElements(expect(d.id)))
      var r = d.parent: TreeNode
      while (r != null) {
        val rr = r.rect
        assert(rr.minX <= d.rect.minX && rr.maxX >= d.rect.maxX &&
               rr.minY <= d.rect.minY && rr.maxY >= d.rect.maxY,
               s"ancestor MBR $rr does not contain ${d.rect}")
        r = r.parent
      }
    }
  }

  for (seed <- 0 until 8; f <- Seq(2, 5, 10)) {
    test(s"build invariants hold (seed=$seed, f=$f)") {
      val ds = randomDatasets(seed, 20 + seed * 10)
      val ix = DitsLocal.build(ds, f)
      checkInvariants(ix, ds.toMap)
    }
  }

  test("build handles duplicate pivots (all datasets identical)") {
    val cells = CellSet.of(Seq(Grid.interleave(3, 3), Grid.interleave(4, 4)))
    val ds = (0 until 37).map(id => id -> cells)
    val ix = DitsLocal.build(ds, 4)
    checkInvariants(ix, ds.toMap)
  }

  test("single-dataset source builds a one-leaf tree") {
    val ds = randomDatasets(1, 1)
    val ix = DitsLocal.build(ds, 10)
    assert(ix.nodeCount == 1 && ix.size == 1)
  }

  test("nodeCount is O(n): at most 2·ceil(n/1) for f≥2") {
    val ds = randomDatasets(3, 200)
    val ix = DitsLocal.build(ds, 10)
    assert(ix.nodeCount <= 2 * 200)
  }

  for (seed <- 0 until 5) {
    test(s"insert keeps invariants and search equivalence (seed=$seed)") {
      val ds = randomDatasets(seed, 40)
      val extra = randomDatasets(seed + 50, 15).map { case (id, cs) => (1000 + id, cs) }
      val ix = DitsLocal.build(ds, 5)
      extra.foreach { case (id, cs) => ix.insert(DatasetNode(id, cs)) }
      checkInvariants(ix, (ds ++ extra).toMap)
      // Equivalent to an index rebuilt from scratch, for overlap search.
      val rebuilt = DitsLocal.build(ds ++ extra, 5)
      val q = randomDatasets(seed + 99, 1).head._2
      assert(OverlapSearch.search(ix, q, 10) == OverlapSearch.search(rebuilt, q, 10))
    }
  }

  for (seed <- 0 until 5) {
    test(s"delete keeps invariants (seed=$seed)") {
      val ds = randomDatasets(seed, 40)
      val ix = DitsLocal.build(ds, 5)
      val gone = ds.take(13).map(_._1)
      gone.foreach(ix.delete)
      checkInvariants(ix, ds.drop(13).toMap)
    }
  }

  for (seed <- 0 until 5) {
    test(s"update replaces content and keeps invariants (seed=$seed)") {
      val ds = randomDatasets(seed, 30)
      val ix = DitsLocal.build(ds, 5)
      val updated = randomDatasets(seed + 77, 10).map { case (i, cs) => (ds(i)._1, cs) }
      updated.foreach { case (id, cs) => ix.update(DatasetNode(id, cs)) }
      checkInvariants(ix, (ds.toMap ++ updated.toMap))
    }
  }

  for (f <- Seq(2, 3, 5)) {
    test(s"inserts into full leaves split them with an exact flat index (f=$f)") {
      val ds = randomDatasets(31 + f, 3 * f)
      val extra = randomDatasets(61 + f, 8 * f, span = 16).map { case (id, cs) => (900 + id, cs) }
      val ix = DitsLocal.build(ds, f)
      var splits = 0
      extra.foreach { case (id, cs) =>
        val d = DatasetNode(id, cs)
        val before = ix.nodeCount
        ix.insert(d)
        if (ix.nodeCount > before) splits += 1
        assert(d.parent.children.contains(d))
        checkInvariants(ix, (ds ++ extra.takeWhile(_._1 != id) :+ (id -> cs)).toMap)
      }
      assert(splits > 0, "the inserts must split a leaf")
    }
  }

  test("an emptied index takes the rect of the next inserted dataset") {
    val ds = randomDatasets(41, 12)
    val ix = DitsLocal.build(ds, 3)
    ds.foreach { case (id, _) => ix.delete(id) }
    assert(ix.size == 0)
    val d = DatasetNode(77, CellSet.of(Seq(Grid.interleave(60, 2), Grid.interleave(61, 3))))
    ix.insert(d)
    assert(ix.root.rect == d.rect)
    checkInvariants(ix, Map(77 -> d.cells))
  }

  test("delete of unknown id throws") {
    val ix = DitsLocal.build(randomDatasets(0, 5), 4)
    intercept[NoSuchElementException](ix.delete(4242))
  }

  test("postingEntries equals total cells across datasets") {
    val ds = randomDatasets(11, 25)
    val ix = DitsLocal.build(ds, 4)
    assert(ix.postingEntries == ds.map(_._2.length.toLong).sum)
  }

  test("synthetic route datasets build a deep tree at realistic scale") {
    val spec = SynthSpatial.testSources(1, 120, 60).head
    val ds = SynthSpatial.cellSource(spec, Grid.world(10))
    val ix = DitsLocal.build(ds, 10)
    checkInvariants(ix, ds.toMap)
    assert(ix.nodeCount > 12, "expected an actual tree, not one leaf")
  }

  test("build rejects a duplicate dataset id") {
    val ds = randomDatasets(21, 6)
    intercept[IllegalArgumentException](DitsLocal.build(ds :+ (ds(2)._1 -> ds(4)._2), 4))
  }

  test("insert rejects an id that is already indexed, and leaves the index unchanged") {
    val ds = randomDatasets(22, 12)
    val ix = DitsLocal.build(ds, 4)
    intercept[IllegalArgumentException](ix.insert(DatasetNode(ds(3)._1, ds(7)._2)))
    checkInvariants(ix, ds.toMap)
    ix.delete(ds(3)._1) // finds the indexed node, not the rejected one
    checkInvariants(ix, ds.toMap - ds(3)._1)
  }

  test("delete finds nodes placed by insert and update; a deleted id can come back") {
    val ds = randomDatasets(23, 30)
    val ix = DitsLocal.build(ds, 3)
    val extra = randomDatasets(24, 10).map { case (id, cs) => (500 + id, cs) }
    extra.foreach { case (id, cs) => ix.insert(DatasetNode(id, cs)) }
    val changed = ds(5)._1 -> extra(0)._2
    ix.update(DatasetNode(changed._1, changed._2))
    (extra.take(6).map(_._1) :+ ds(5)._1 :+ ds(9)._1).foreach(ix.delete)
    intercept[NoSuchElementException](ix.delete(ds(9)._1))
    ix.insert(DatasetNode(ds(9)._1, ds(9)._2))
    checkInvariants(ix, (ds.toMap - ds(5)._1) ++ extra.drop(6).toMap)
  }
}

object DitsLocalSpec {
  import org.scalatest.Assertions._

  /** Every key's cell lies in the leaf's half-open rect
    * `[minX, maxX) × [minY, maxY)`, the region OverlapSearch looks query
    * cells up in.
    */
  def assertKeysInRect(leaf: Leaf): Unit = {
    val r = leaf.rect
    leaf.keys.foreach { c =>
      val x = Grid.cellX(c); val y = Grid.cellY(c)
      assert(x >= r.minX && x < r.maxX && y >= r.minY && y < r.maxY, s"key ($x, $y) outside leaf rect $r")
    }
  }

  /** The leaf's flat inverted index equals the one rebuilt from its
    * children: sorted distinct keys, and for each key the ascending slots
    * of the children holding it. The keys are stored as tiles: strictly
    * ascending tiles, no empty word, and each rank the number of keys in
    * the tiles before it.
    */
  def assertFlatIndex(leaf: Leaf): Unit = {
    val keys = leaf.children.flatMap(_.cells).distinct.sorted
    val postings = keys.map(c => leaf.children.indices.filter(s => leaf.children(s).cells.contains(c)))
    val (tiles, words) = (leaf.tiles.toSeq, leaf.words.toSeq)
    assert(tiles.zip(tiles.drop(1)).forall { case (a, b) => a < b }, s"tiles not strictly ascending: $tiles")
    assert(words.length == tiles.length && leaf.rank.length == tiles.length, "tile arrays differ in length")
    assert(!words.contains(0L), "a tile without keys")
    assert(leaf.rank.toSeq == words.scanLeft(0)(_ + java.lang.Long.bitCount(_)).dropRight(1),
           "ranks are not the prefix sums of the tiles' key counts")
    assert(tiles == keys.map(CellSet.tileOf).distinct, "tiles out of sync with children")
    assert(leaf.keyCount == keys.length, "key count out of sync with children")
    assert(leaf.keys.toSeq == keys, "leaf keys out of sync with children")
    assert(leaf.offs.toSeq == postings.scanLeft(0)(_ + _.length), "leaf offsets out of sync")
    assert(leaf.slots.toSeq == postings.flatten, "leaf postings out of sync with children")
    keys.zip(postings).foreach { case (c, ss) =>
      assert(leaf.inv.get(c).contains(ss.map(leaf.children(_).id)))
    }
  }
}
