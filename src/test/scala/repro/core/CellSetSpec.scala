package repro.core

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
        (ax, ay) = Grid.deinterleave(ca); (bx, by) = Grid.deinterleave(cb)
      } yield math.sqrt(math.pow(ax - bx, 2) + math.pow(ay - by, 2))).min
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
}
