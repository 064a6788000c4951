package repro.core

import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Cell-based dataset operations: set arithmetic, Def. 6 distance,
  * Defs. 7–9 connectivity, MBR summaries.
  */
class CellSetSpec extends AnyFunSuite {

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
      assert(idx.connectedTo(b) == CellSet.connected(a, b, delta))
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
      Prop(new CellSet.NeighborIndex(a, delta).connectedTo(b) == exp) :|
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
          assert(idx.connectedTo(b) == CellSet.connected(a, b, delta), s"a=($ax,$ay) b=($bx,$by) δ=$delta")
        }
      }
    }
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
}
