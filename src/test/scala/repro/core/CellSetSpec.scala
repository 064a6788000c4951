package repro.core

import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Cell-based dataset operations: set arithmetic, Def. 6 distance,
  * Defs. 7–9 connectivity, MBR summaries.
  */
class CellSetSpec extends AnyFunSuite {

  /** A sorted, distinct cell set as the tile runs the kernels read. */
  private def tiles(cells: Array[Long]): CellSet.Tiles = new CellSet.Tiles(cells)

  private def randomCells(rnd: Random, n: Int, span: Int): Array[Long] =
    CellSet.of(Array.fill(n)(Grid.interleave(rnd.nextInt(span), rnd.nextInt(span))))

  for (seed <- 0 until 20) {
    test(s"intersectionSize/union agree with Scala sets (seed=$seed)") {
      val rnd = new Random(seed)
      val a = randomCells(rnd, 1 + rnd.nextInt(60), 32)
      val b = randomCells(rnd, 1 + rnd.nextInt(60), 32)
      assert(CellSet.intersectionSize(a, b) == a.toSet.intersect(b.toSet).size)
      val u = CellSet.union(a, b)
      assert(u.toSet == a.toSet.union(b.toSet))
      assert(u.toSeq == u.toSeq.sorted, "union must stay sorted")
      assert(u.toSeq.distinct == u.toSeq, "union must stay distinct")
    }
  }

  for (seed <- 0 until 20) {
    test(s"minDist equals brute-force pairwise minimum (seed=$seed)") {
      val rnd = new Random(100 + seed)
      val a = randomCells(rnd, 1 + rnd.nextInt(25), 64)
      val b = randomCells(rnd, 1 + rnd.nextInt(25), 64)
      val brute = (for {
        ca <- a; cb <- b
      } yield math.hypot(Grid.cellX(ca) - Grid.cellX(cb), Grid.cellY(ca) - Grid.cellY(cb))).min
      assert(math.abs(CellSet.minDist(a, b) - brute) < 1e-9)
    }
  }

  for (seed <- 0 until 20; deltaI <- Seq(0, 1, 3, 7)) {
    test(s"connected ⟺ minDist ≤ δ (seed=$seed, δ=$deltaI)") {
      val rnd = new Random(1000 * seed + deltaI)
      val a = randomCells(rnd, 1 + rnd.nextInt(20), 48)
      val b = randomCells(rnd, 1 + rnd.nextInt(20), 48)
      assert(CellSet.connected(a, b, deltaI) == (CellSet.minDist(a, b) <= deltaI))
    }
  }

  test("Example 3 of the paper: distances between S_D1, S_D2, S_D3") {
    // S_D1 = {9,11}, S_D2 = {1,3}, S_D3 = {12,13} on a θ=2 grid (Fig. 2).
    val d1 = CellSet.of(Seq(9L, 11L))
    val d2 = CellSet.of(Seq(1L, 3L))
    val d3 = CellSet.of(Seq(12L, 13L))
    assert(math.abs(CellSet.minDist(d1, d2) - 1.0) < 1e-9)
    assert(math.abs(CellSet.minDist(d1, d3) - 1.0) < 1e-9)
    assert(math.abs(CellSet.minDist(d2, d3) - math.sqrt(2)) < 1e-9)
    // With δ=1: D1–D2 and D1–D3 directly connected, D2–D3 not.
    assert(CellSet.connected(d1, d2, 1))
    assert(CellSet.connected(d1, d3, 1))
    assert(!CellSet.connected(d2, d3, 1))
  }

  test("distance to self is 0 and is symmetric") {
    val rnd = new Random(7)
    val a = randomCells(rnd, 10, 32)
    val b = randomCells(rnd, 10, 32)
    assert(CellSet.minDist(a, a) == 0.0)
    assert(CellSet.minDist(a, b) == CellSet.minDist(b, a))
  }

  test("marginalGain counts exactly the uncovered cells (Eq. 3)") {
    val rnd = new Random(9)
    (0 until 50).foreach { _ =>
      val d = randomCells(rnd, 1 + rnd.nextInt(30), 32)
      val cov = randomCells(rnd, 1 + rnd.nextInt(30), 32)
      assert(CellSet.marginalGain(d, cov) == d.toSet.diff(cov.toSet).size)
      assert(CellSet.union(d, cov).length - cov.length == CellSet.marginalGain(d, cov))
    }
  }

  test("mbr spans the full extent of member cells") {
    val cells = CellSet.of(Seq(Grid.interleave(2, 3), Grid.interleave(5, 1)))
    val r = CellSet.mbr(cells)
    assert(r == MBR(2, 1, 6, 4)) // cell extents are [X, X+1]
  }

  for (seed <- 0 until 15; delta <- Seq(0.0, 1.0, 2.5, 5.0, 13.0)) {
    test(s"NeighborIndex ≡ pairwise connectivity (seed=$seed, δ=$delta)") {
      val rnd = new Random(7000 + seed)
      val a = randomCells(rnd, 1 + rnd.nextInt(40), 64)
      val b = randomCells(rnd, 1 + rnd.nextInt(40), 64)
      val idx = new CellSet.NeighborIndex(a, delta)
      assert(idx.connectedTo(tiles(b)) == CellSet.connected(a, b, delta))
    }
  }

  test("of() normalises unsorted duplicated input") {
    val cs = CellSet.of(Seq(5L, 1L, 5L, 3L, 1L))
    assert(cs.toSeq == Seq(1L, 3L, 5L))
  }

  for (seed <- 0 until 20) {
    test(s"of() equals distinct-then-sorted and leaves its input alone (seed=$seed)") {
      val rnd = new Random(500 + seed)
      // Small value ranges force duplicates; wide ones exercise the sign bit.
      val span = Seq(3L, 50L, Long.MaxValue)(seed % 3)
      val raw = Array.fill(rnd.nextInt(80))(if (span == Long.MaxValue) rnd.nextLong() else rnd.nextLong(span))
      val copy = raw.clone()
      val exp = raw.toSeq.distinct.sorted
      assert(CellSet.of(raw).toSeq == exp)
      assert(raw.sameElements(copy), "of(Array) must not write its input")
      assert(CellSet.of(raw.toSeq).toSeq == exp)
      assert(CellSet.of(raw.toList).toSeq == exp)
    }
  }

  test("sortedDistinct works on a prefix and returns the buffer when nothing is dropped") {
    val a = Array(9L, 2L, 9L, 4L, 2L, -1L, -7L)
    assert(CellSet.sortedDistinct(a, 5).toSeq == Seq(2L, 4L, 9L))
    val b = Array(3L, 1L, 2L)
    assert(CellSet.sortedDistinct(b, 3) eq b)
    assert(b.toSeq == Seq(1L, 2L, 3L))
    assert(CellSet.sortedDistinct(Array.emptyLongArray, 0).isEmpty)
  }

  /** A small cell set on a 2^θ × 2^θ grid, up to `max` cells and mostly
    * one to three (so a single pair decides connectivity), drawn with
    * extra weight on the border coordinates 0 and 2^θ − 1 (θ = 28 reaches
    * the largest coordinate a cell ID holds).
    */
  private def cellsOn(theta: Int, max: Int): Gen[Array[Long]] = {
    val top = (1 << theta) - 1
    val coord = Gen.frequency(2 -> Gen.oneOf(0, top), 3 -> Gen.choose(0, math.min(top, 5)),
                              3 -> Gen.choose(math.max(0, top - 5), top))
    Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 3), 3 -> Gen.choose(4, max))
      .flatMap(Gen.listOfN(_, Gen.zip(coord, coord)))
      .map(xys => CellSet.of(xys.map { case (x, y) => Grid.interleave(x, y) }))
  }

  private val thetas = Gen.oneOf(1, 2, 3, 4, 28)
  private val deltas = Gen.oneOf(0.0, 0.5, 1.0, math.sqrt(2), 5.0, 1e9, Double.PositiveInfinity)

  private def check(prop: Prop): Unit = {
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }

  /** Cells of `a` moved by up to 6 in each direction, clamped to the
    * grid: pairs at every direction and distance around the thresholds.
    */
  private def shifted(theta: Int, a: Array[Long]): Gen[Array[Long]] =
    if (a.isEmpty) Gen.const(a)
    else {
      val top = (1 << theta) - 1
      val move = Gen.zip(Gen.oneOf(a.toSeq), Gen.choose(-6, 6), Gen.choose(-6, 6)).map { case (c, dx, dy) =>
        Grid.interleave(math.min(top, math.max(0, Grid.cellX(c) + dx)),
                        math.min(top, math.max(0, Grid.cellY(c) + dy)))
      }
      Gen.choose(1, 3).flatMap(Gen.listOfN(_, move)).map(CellSet.of(_))
    }

  private val cellPairs: Gen[(Array[Long], Array[Long])] = for {
    theta <- thetas
    a <- cellsOn(theta, 12)
    b <- Gen.frequency(1 -> cellsOn(theta, 12), 3 -> shifted(theta, a))
  } yield (a, b)

  test("NeighborIndex ≡ CellSet.connected on tiny grids, borders, empty sets and every δ (property)") {
    check(Prop.forAll(cellPairs, deltas) { case ((a, b), delta) =>
      val exp = CellSet.connected(a, b, delta)
      Prop(new CellSet.NeighborIndex(a, delta).connectedTo(tiles(b)) == exp) :|
        s"a=${a.map(c => (Grid.cellX(c), Grid.cellY(c))).toSeq} b=${b.map(c => (Grid.cellX(c), Grid.cellY(c))).toSeq} δ=$delta expected $exp"
    })
  }

  test("NeighborIndex ≡ CellSet.connected for every single-cell pair up to 7 apart") {
    val top = (1 << 28) - 1
    val anchors = (for (x <- 0 until 12; y <- 0 until 12) yield (x, y)) ++ Seq((top, top), (top - 5, 3))
    for (delta <- Seq(0.0, 0.5, 1.0, math.sqrt(2), 2.5, 5.0, Double.PositiveInfinity); (ax, ay) <- anchors) {
      val a = Array(Grid.interleave(ax, ay))
      val idx = new CellSet.NeighborIndex(a, delta)
      for (dx <- -7 to 7; dy <- -7 to 7) {
        val (bx, by) = (ax + dx, ay + dy)
        if (bx >= 0 && by >= 0 && bx <= top && by <= top) {
          val b = Array(Grid.interleave(bx, by))
          assert(idx.connectedTo(tiles(b)) == CellSet.connected(a, b, delta), s"a=($ax,$ay) b=($bx,$by) δ=$delta")
        }
      }
    }
  }

  /** Probe walks against indexes whose bounding box clips most of the
    * walk. The index is empty, arbitrary cells, or two cells on the
    * anti-diagonal of their box (plus a few inside it), so a box corner
    * is not a member and the box is nearer to a probe than any cell. The
    * walk starts anywhere on the grid, mostly outside the box, and gains
    * one cell at the offset nearest δ (exactly δ for δ ∈ {0, √2, 5}, a
    * 3-4-5 diagonal for 5) from a member or from a box corner.
    * Coordinates are drawn with extra weight on 0 and 2^θ − 1.
    */
  private val boxClipCases: Gen[(Array[Long], Array[Long], Double)] = for {
    theta <- Gen.oneOf(2, 3, 5, 28)
    top = (1 << theta) - 1
    coord = Gen.frequency(2 -> Gen.oneOf(0, top), 3 -> Gen.choose(0, top))
    clamp = (v: Int) => math.min(top, math.max(0, v))
    delta <- Gen.oneOf(0.0, 1.5, math.sqrt(2), 5.0, 1e9, Double.PositiveInfinity)
    index <- Gen.frequency(
      1 -> Gen.const(Seq.empty[(Int, Int)]),
      2 -> Gen.choose(1, 6).flatMap(Gen.listOfN(_, Gen.zip(coord, coord))),
      4 -> (for {
        x0 <- coord; x1 <- coord; y0 <- coord; y1 <- coord
        (lx, hx, ly, hy) = (math.min(x0, x1), math.max(x0, x1), math.min(y0, y1), math.max(y0, y1))
        inner <- Gen.choose(0, 3).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(lx, hx), Gen.choose(ly, hy))))
      } yield Seq((lx, hy), (hx, ly)) ++ inner))
    start <- Gen.zip(coord, coord)
    steps <- Gen.choose(0, 30).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(-2, 2), Gen.choose(-2, 2))))
    anchors = if (index.isEmpty) Seq(start) else {
      val xs = index.map(_._1); val ys = index.map(_._2)
      index ++ (for (x <- Seq(xs.min, xs.max); y <- Seq(ys.min, ys.max)) yield (x, y))
    }
    anchor <- Gen.oneOf(anchors)
    nearest = for (dx <- -6 to 6; dy <- -6 to 6) yield (dx, dy)
    best = nearest.map { case (dx, dy) => math.abs(math.hypot(dx, dy) - delta) }.min
    offset <- Gen.oneOf(nearest.filter { case (dx, dy) => math.abs(math.hypot(dx, dy) - delta) == best })
  } yield {
    val walk = steps.scanLeft(start) { case ((x, y), (dx, dy)) => (clamp(x + dx), clamp(y + dy)) }
    val atDelta = (clamp(anchor._1 + offset._1), clamp(anchor._2 + offset._2))
    def cells(xys: Seq[(Int, Int)]) = CellSet.of(xys.map { case (x, y) => Grid.interleave(x, y) })
    (cells(index), cells(walk :+ atDelta), delta)
  }

  test("NeighborIndex's bounding-box clip ≡ CellSet.connected on probe walks around the box (property)") {
    check(Prop.forAll(boxClipCases) { case (a, b, delta) =>
      val exp = CellSet.connected(a, b, delta)
      Prop(new CellSet.NeighborIndex(a, delta).connectedTo(tiles(b)) == exp) :|
        s"a=${a.map(c => (Grid.cellX(c), Grid.cellY(c))).toSeq} b=${b.map(c => (Grid.cellX(c), Grid.cellY(c))).toSeq} δ=$delta expected $exp"
    })
  }

  /** Index sets beside [[cellPairs]]' small ones that make the bucket
    * directory widen its side past max(1, ⌈δ⌉): two cells 2^27 apart, a
    * 200-cell diagonal and sparse cells anywhere on a θ = 28 grid, probed
    * by cells moved up to 6 from them or by random cells.
    */
  private val directoryCases: Gen[(Array[Long], Array[Long], Double)] = {
    val top = (1 << 28) - 1
    def cells(xys: Seq[(Int, Int)]) = CellSet.of(xys.map { case (x, y) => Grid.interleave(x, y) })
    val wide = Gen.oneOf(
      Gen.zip(Gen.choose(0, top - (1 << 27)), Gen.choose(0, top)).map { case (x, y) =>
        (cells(Seq((x, y), (x + (1 << 27), y))), 0.0) },
      Gen.choose(0, top - 199).map(o => (cells((0 until 200).map(i => (o + i, o + i))), 1.0)),
      Gen.zip(Gen.choose(1, 30).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(0, top), Gen.choose(0, top)))),
              deltas).map { case (xys, d) => (cells(xys), d) })
    for {
      (a, delta) <- Gen.frequency(2 -> wide, 1 -> Gen.zip(cellPairs.map(_._1), deltas))
      b <- Gen.frequency(3 -> shifted(28, a), 1 -> cellsOn(28, 12))
    } yield (a, b, delta)
  }

  test("NeighborIndex.packed ≡ new NeighborIndex ≡ CellSet.connected, with the directory within 8·|cells| + 8 buckets (property)") {
    check(Prop.forAll(directoryCases) { case (a, b, delta) =>
      val exp = CellSet.connected(a, b, delta)
      val packed = CellSet.NeighborIndex.packed(tiles(a).xy, delta)
      val (side, w, h) = packed.shape
      Prop(packed.connectedTo(tiles(b)) == exp &&
           new CellSet.NeighborIndex(a, delta).connectedTo(tiles(b)) == exp &&
           w.toLong * h <= 8L * a.length + 8 && (side >= math.max(1.0, delta) || side == Long.MaxValue)) :|
        s"|a|=${a.length} b=${b.map(c => (Grid.cellX(c), Grid.cellY(c))).toSeq} δ=$delta expected $exp, side=$side w=$w h=$h"
    })
  }

  test("each bucket spans s coordinates from the members' low corner, also left of and below it (property)") {
    check(Prop.forAll(directoryCases) { case (a, b, delta) =>
      a.nonEmpty ==> {
        val idx = new CellSet.NeighborIndex(a, delta)
        val side = BigInt(idx.shape._1)
        val lx = a.map(Grid.cellX).min; val ly = a.map(Grid.cellY).min
        def within(v: Int, lo: Int, bucket: Long) =
          BigInt(lo) + bucket * side <= v && v < BigInt(lo) + (bucket + 1) * side
        val probes = (a ++ b).map(c => (Grid.cellX(c), Grid.cellY(c))) ++
          (1 to 3).map(d => (math.max(0, lx - d), math.max(0, ly - d)))
        val bad = probes.filterNot { case (x, y) =>
          val (bx, by) = idx.bucketOf(x, y)
          within(x, lx, bx) && within(y, ly, by)
        }
        Prop(bad.isEmpty) :| s"side=$side low corner=($lx, $ly) cells outside their bucket: ${bad.take(3).toSeq}"
      }
    })
  }

  test("the directory's side is max(1, ⌈δ⌉) for dense cells and doubles for sparse ones") {
    def side(xys: Seq[(Int, Int)], delta: Double) =
      new CellSet.NeighborIndex(CellSet.of(xys.map { case (x, y) => Grid.interleave(x, y) }), delta).shape._1
    val block = for (x <- 0 until 10; y <- 0 until 10) yield (x, y)
    assert(side(block, 0.0) == 1 && side(block, 1.0) == 1 && side(block, 2.5) == 3 && side(block, 5.0) == 5)
    assert(side(block, Double.PositiveInfinity) == Long.MaxValue)
    // 2 cells: at most 24 buckets, so 2^27 / s + 1 ≤ 24 first holds at s = 2^23.
    assert(side(Seq((3, 5), (3 + (1 << 27), 5)), 0.0) == (1L << 23))
    // 200 cells: at most 1608 buckets; (199 / s + 1)^2 is 2500 at s = 4 and 625 at s = 8.
    assert(side((0 until 200).map(i => (7 + i, 7 + i)), 1.0) == 8)
    assert(new CellSet.NeighborIndex(Array.emptyLongArray, 3.0).shape == ((3L, 0, 0)))
  }

  test("the distance of two cell sets' MBRs is a lower bound on their cell distance (property)") {
    check(Prop.forAll(cellPairs) { case (a, b) =>
      (a.nonEmpty && b.nonEmpty) ==> (CellSet.mbr(a).minDist(CellSet.mbr(b)) <= CellSet.minDist(a, b))
    })
  }

  test("intersectionSize, union and marginalGain ≡ Scala sets at any length ratio (property)") {
    val cells = Gen.choose(0, 400).flatMap(span =>
      Gen.frequency(1 -> Gen.const(0), 4 -> Gen.choose(1, 20), 2 -> Gen.choose(21, 2000))
        .flatMap(Gen.listOfN(_, Gen.choose(0L, span.toLong))).map(CellSet.of(_)))
    check(Prop.forAll(cells, cells) { (a, b) =>
      val exp = a.toSet.intersect(b.toSet).size
      val union = (a ++ b).distinct.sorted.toSeq
      Prop(CellSet.intersectionSize(a, b) == exp && CellSet.intersectionSize(b, a) == exp &&
           CellSet.marginalGain(a, b) == a.length - exp &&
           CellSet.union(a, b).toSeq == union && CellSet.union(b, a).toSeq == union) :|
        s"|a|=${a.length} |b|=${b.length}"
    })
  }

  /** Sorted cell sets for [[CellSet.Cover]]: cells on and next to tile
    * edges (63/64, 127/128, 4095/4096 and the last tiles of θ = 16, whose
    * z-order IDs reach 2^32 − 1), dense cells in the first 64 tiles, cells
    * anywhere below 2^32 (one tile each, so hundreds of tiles grow the
    * table several times), runs that fill whole tiles, and empty sets.
    */
  private val coverCells: Gen[Array[Long]] = {
    val top = (1L << 32) - 1
    val edge = Gen.oneOf(0L, 63L, 64L, 127L, 128L, 4095L, 4096L, top - 64, top - 63, top)
    val nearEdge = Gen.zip(edge, Gen.choose(-2L, 2L)).map { case (e, d) => math.min(top, math.max(0L, e + d)) }
    val cell = Gen.frequency(2 -> edge, 2 -> nearEdge, 3 -> Gen.choose(0L, 4095L), 2 -> Gen.choose(0L, top))
    val scattered = Gen.frequency(1 -> Gen.const(0), 4 -> Gen.choose(1, 20), 2 -> Gen.choose(21, 400))
      .flatMap(Gen.listOfN(_, cell))
    val run = for (from <- Gen.oneOf(cell, Gen.choose(0L, 200L)); len <- Gen.choose(1, 200))
      yield (from to math.min(top, from + len - 1)).toList
    Gen.frequency(4 -> scattered, 1 -> run).map(CellSet.of(_))
  }

  test("Cover ≡ a Scala Set[Long] over random add/gain sequences (property)") {
    val ops = Gen.choose(0, 12).flatMap(Gen.listOfN(_, Gen.zip(Gen.oneOf(true, false), coverCells)))
    check(Prop.forAll(coverCells, ops) { (init, ops) =>
      val cover = new CellSet.Cover(tiles(init))
      var ref = init.toSet
      // Each op checks its gain against the set; an add then checks that
      // the same cells gain 0 and that size is |∪|.
      val bad = (cover.size == init.length) +: ops.map { case (isAdd, d) =>
        val ok = cover.gain(tiles(d)) == d.count(c => !ref(c))
        if (isAdd) { cover.add(tiles(d)); ref ++= d; ok && cover.gain(tiles(d)) == 0 && cover.size == ref.size } else ok
      } :+ (cover.gain(tiles(init)) == 0 && cover.gain(tiles(Array.emptyLongArray)) == 0 && cover.size == ref.size)
      Prop(!bad.contains(false)) :|
        s"|init|=${init.length} ops=${ops.map { case (a, d) => (a, d.length) }} checks=$bad"
    })
  }

  test("Cover keeps every tile through table growth: one cell per tile, then the tiles filled") {
    val n = 5000L
    val one = Array.tabulate(n.toInt)(t => (t.toLong << 6) | (t % 64))
    val cover = new CellSet.Cover(tiles(Array.emptyLongArray))
    assert(cover.size == 0 && cover.gain(tiles(one)) == n)
    one.grouped(7).foreach(g => cover.add(tiles(g)))
    assert(cover.size == n && cover.gain(tiles(one)) == 0)
    val full = Array.tabulate(n.toInt * 64)(_.toLong)
    assert(cover.gain(tiles(full)) == 63 * n)
    cover.add(tiles(full))
    assert(cover.size == 64 * n && cover.gain(tiles(full)) == 0 && cover.gain(tiles(Array(64 * n))) == 1)
  }
}
