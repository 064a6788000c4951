package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => PropTest}

/** Grid partition and z-order encoding (Defs. 4–5). */
class GridSpec extends AnyFunSuite {

  /** Run a ScalaCheck property and assert it passed (no scalatestplus
    * bridge is available offline, so we drive ScalaCheck directly).
    */
  private def check(p: Prop): Unit = {
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(res.passed, res.status.toString)
  }

  test("interleave/deinterleave roundtrip (property)") {
    check(Prop.forAll(Gen.choose(0, (1 << 14) - 1), Gen.choose(0, (1 << 14) - 1)) {
      (x: Int, y: Int) => Grid.deinterleave(Grid.interleave(x, y)) == ((x, y))
    })
  }

  test("interleave is injective on a 64x64 block") {
    val codes = for (x <- 0 until 64; y <- 0 until 64) yield Grid.interleave(x, y)
    assert(codes.distinct.length == 64 * 64)
  }

  test("z-order of (0,0) is 0 and of (1,0)/(0,1) are 1/2 (Example 2 layout)") {
    assert(Grid.interleave(0, 0) == 0L)
    assert(Grid.interleave(1, 0) == 1L)
    assert(Grid.interleave(0, 1) == 2L)
    assert(Grid.interleave(1, 1) == 3L)
  }

  test("theta=2 grid has 16 cells with ids 0..15") {
    val ids = for (x <- 0 until 4; y <- 0 until 4) yield Grid.interleave(x, y)
    assert(ids.sorted == (0L until 16L))
  }

  for (theta <- Seq(2, 4, 6, 8, 10, 12)) {
    test(s"cellOf stays in range [0, 4^θ) for θ=$theta") {
      val g = Grid.world(theta)
      val rnd = new scala.util.Random(theta)
      (0 until 200).foreach { _ =>
        val x = rnd.nextDouble() * 360 - 180
        val y = rnd.nextDouble() * 180 - 90
        val c = g.cellOf(x, y)
        assert(c >= 0 && c < (1L << (2 * theta)))
      }
    }

    test(s"cellRect contains the generating point for θ=$theta") {
      val g = Grid.world(theta)
      val rnd = new scala.util.Random(theta + 100)
      (0 until 100).foreach { _ =>
        val x = rnd.nextDouble() * 359.9 - 180
        val y = rnd.nextDouble() * 179.9 - 90
        val r = g.cellRect(g.cellOf(x, y))
        assert(r.contains(Point(x, y)), s"($x,$y) not in $r")
      }
    }
  }

  test("points on the max edge are clamped into the last cell") {
    val g = Grid.world(4)
    assert(g.coordsOf(g.cellOf(180.0, 90.0)) == ((15, 15)))
    assert(g.coordsOf(g.cellOf(-180.0, -90.0)) == ((0, 0)))
  }

  test("infinite coordinates are clamped into the edge cells") {
    val g = Grid.world(4)
    assert(g.coordsOf(g.cellOf(Double.PositiveInfinity, Double.NegativeInfinity)) == ((15, 0)))
    assert(g.coordsOf(g.cellOf(Double.NegativeInfinity, Double.PositiveInfinity)) == ((0, 15)))
  }

  test("a NaN coordinate is rejected, not mapped to cell 0") {
    val g = Grid.world(10)
    intercept[IllegalArgumentException](g.cellOf(Double.NaN, 10.0))
    intercept[IllegalArgumentException](g.cellOf(10.0, Double.NaN))
    intercept[IllegalArgumentException](g.cellOf(Double.NaN, Double.NaN))
  }

  test("cellSet is sorted and distinct") {
    val g = Grid.world(6)
    val pts = Seq(Point(1, 1), Point(1.001, 1.001), Point(50, 50), Point(-120, -60))
    val cs = g.cellSet(pts)
    assert(cs.toSeq == cs.toSeq.sorted)
    assert(cs.toSeq.distinct == cs.toSeq)
    assert(cs.length == 3) // the two nearby points share a cell at θ=6
  }

  test("cellSpaceToLonLat inverts lonLatToCellSpace") {
    val g = Grid.world(8)
    val r = MBR(-10.5, 4.25, 33.0, 47.5)
    val back = g.cellSpaceToLonLat(g.lonLatToCellSpace(r))
    assert(math.abs(back.minX - r.minX) < 1e-9 && math.abs(back.maxY - r.maxY) < 1e-9)
  }

  test("grid cell dimensions partition the space exactly") {
    val g = Grid.world(10)
    assert(math.abs(g.cellW * g.side - 360.0) < 1e-9)
    assert(math.abs(g.cellH * g.side - 180.0) < 1e-9)
  }
}
