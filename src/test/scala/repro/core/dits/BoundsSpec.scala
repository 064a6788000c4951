package repro.core.dits

import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, MBR, Point}
import scala.util.Random

/** Lemma 2/3 (leaf intersection bounds) and Lemma 4 (node distance
  * bounds): the exact value always lies within [lb, ub].
  */
class BoundsSpec extends AnyFunSuite {

  /** Lemma 4's (lb, ub) for two nodes' rects, as FindConnectSet reads them. */
  private def bounds(a: MBR, b: MBR): (Double, Double) =
    (CoverageSearch.lowerBound(a.pivotX, a.pivotY, a.radius, b.pivotX, b.pivotY, b.radius),
     CoverageSearch.upperBound(a.pivotX, a.pivotY, a.radius, b.pivotX, b.pivotY, b.radius))

  private def randomCells(rnd: Random, n: Int, span: Int = 48): Array[Long] = {
    val cx = rnd.nextInt(span); val cy = rnd.nextInt(span)
    CellSet.of(Array.fill(n) {
      val x = math.min(span - 1, math.max(0, cx + rnd.nextInt(9) - 4))
      val y = math.min(span - 1, math.max(0, cy + rnd.nextInt(9) - 4))
      Grid.interleave(x, y)
    })
  }

  for (seed <- 0 until 15) {
    test(s"Lemmas 2–3: leaf lb ≤ exact per-dataset overlap ≤ leaf ub (seed=$seed)") {
      val rnd = new Random(seed)
      val ds = (0 until 30).map(id => id -> randomCells(rnd, 1 + rnd.nextInt(25)))
      val ix = DitsLocal.build(ds, 5)
      val query = randomCells(rnd, 1 + rnd.nextInt(30))
      ix.root.leaves.foreach { leaf =>
        val ub = OverlapSearch.upperBound(leaf, query)
        val lb = OverlapSearch.lowerBound(leaf, query)
        assert(lb <= ub)
        leaf.children.foreach { d =>
          val exact = CellSet.intersectionSize(d.cells, query)
          assert(exact <= ub, s"exact=$exact > ub=$ub for dataset ${d.id}")
          assert(exact >= lb, s"exact=$exact < lb=$lb for dataset ${d.id}")
        }
      }
    }
  }

  test("upper bound is tight when the leaf holds a superset dataset") {
    val q = CellSet.of(Seq(Grid.interleave(1, 1), Grid.interleave(2, 2)))
    val ix = DitsLocal.build(Seq(0 -> q), 4)
    val leaf = ix.root.leaves.next()
    assert(OverlapSearch.upperBound(leaf, q) == 2)
    assert(OverlapSearch.lowerBound(leaf, q) == 2) // single child ⇒ lb = ub
  }

  for (seed <- 0 until 15) {
    test(s"Lemma 4: node-distance bounds contain the exact dataset distance (seed=$seed)") {
      val rnd = new Random(500 + seed)
      val a = randomCells(rnd, 1 + rnd.nextInt(20))
      val b = randomCells(rnd, 1 + rnd.nextInt(20))
      val na = DatasetNode(0, a); val nb = DatasetNode(1, b)
      val (lb, ub) = bounds(na.rect, nb.rect)
      val exact = CellSet.minDist(a, b)
      assert(lb <= exact + 1e-9, s"lb=$lb > exact=$exact")
      assert(ub >= exact - 1e-9, s"ub=$ub < exact=$exact")
    }
  }

  test("Example 6 shape: bounds bracket the exact distance for two clusters") {
    // Two 2-cell diagonal clusters 5 apart (mirrors the paper's Example 6).
    val sq = CellSet.of(Seq(Grid.interleave(0, 0), Grid.interleave(1, 1)))
    val sd = CellSet.of(Seq(Grid.interleave(5, 0), Grid.interleave(6, 1)))
    val nq = DatasetNode(0, sq); val nd = DatasetNode(1, sd)
    val (lb, ub) = bounds(nq.rect, nd.rect)
    val exact = CellSet.minDist(sq, sd) // (1,1) to (5,0): sqrt(17)
    assert(math.abs(exact - math.sqrt(17)) < 1e-9)
    assert(lb <= exact && exact <= ub)
  }

  test("Lemma 4's upper bound from the rects' fields == pivot distance plus radii through Points (property)") {
    // The Point form is the textbook one, pivot distance plus both radii,
    // each through a Point. Equality to the last bit keeps every wholesale
    // decision of FindConnectSet the same.
    val coord = Gen.frequency(2 -> Gen.choose(0, 1 << 20).map(_.toDouble), 1 -> Gen.choose(-1e6, 1e6))
    val rects = Gen.zip(coord, coord, Gen.choose(0.0, 1e4), Gen.choose(0.0, 1e4)).map { case (x, y, w, h) =>
      MBR(x, y, x + w, y + h) }
    def viaPoints(a: MBR, b: MBR): Double = {
      val ra = a.pivot.dist(Point(a.maxX, a.maxY)); val rb = b.pivot.dist(Point(b.maxX, b.maxY))
      val d = a.pivot.dist(b.pivot)
      d + ra + rb
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(2000),
      Prop.forAll(rects, rects) { (a, b) =>
        val ub = bounds(a, b)._2
        Prop(ub == viaPoints(a, b)) :| s"a=$a b=$b ub=$ub via Points=${viaPoints(a, b)}"
      })
    assert(res.passed, res.status.toString)
  }

  test("Lemma 4's lower bound never exceeds the distance of the two rects (property)") {
    // Each rect lies inside its Lemma 4 ball, so FindConnectSet's rect test
    // prunes every node the lower bound would.
    val coord = Gen.frequency(2 -> Gen.choose(0, 8), 1 -> Gen.choose(0, 1 << 20))
    val rects = Gen.zip(coord, coord, Gen.choose(0, 6), Gen.choose(0, 6)).map { case (x, y, w, h) =>
      MBR(x, y, x + w, y + h) }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(2000),
      Prop.forAll(rects, rects) { (a, b) =>
        val (lb, _) = bounds(a, b)
        Prop(lb <= a.minDist(b) + 1e-6) :| s"a=$a b=$b lb=$lb rect distance=${a.minDist(b)}"
      })
    assert(res.passed, res.status.toString)
  }
}
