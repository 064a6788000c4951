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

  private val coord = Gen.choose(0, (1 << 28) - 1)

  test("interleave/deinterleave roundtrip (property)") {
    check(Prop.forAll(coord, coord) {
      (x: Int, y: Int) => Grid.deinterleave(Grid.interleave(x, y)) == ((x, y))
    })
  }

  test("interleave equals the bit-by-bit reference (property)") {
    check(Prop.forAll(coord, coord) { (x: Int, y: Int) =>
      Grid.interleave(x, y) == GridSpec.refInterleave(x, y)
    })
    // Bits above 27 are ignored, as by the reference.
    check(Prop.forAll { (x: Int, y: Int) => Grid.interleave(x, y) == GridSpec.refInterleave(x, y) })
  }

  test("deinterleave, cellX and cellY equal the bit-by-bit reference (property)") {
    val code = Gen.oneOf(Gen.choose(0L, (1L << 56) - 1), Gen.long)
    check(Prop.forAll(code) { (c: Long) =>
      val ref = GridSpec.refDeinterleave(c)
      Grid.deinterleave(c) == ref && Grid.cellX(c) == ref._1 && Grid.cellY(c) == ref._2
    })
  }

  test("each coordinate bit lands on its own code bit") {
    for (i <- 0 until 28) {
      assert(Grid.interleave(1 << i, 0) == 1L << (2 * i))
      assert(Grid.interleave(0, 1 << i) == 1L << (2 * i + 1))
      assert(Grid.cellX(1L << (2 * i)) == 1 << i && Grid.cellY(1L << (2 * i)) == 0)
      assert(Grid.cellY(1L << (2 * i + 1)) == 1 << i && Grid.cellX(1L << (2 * i + 1)) == 0)
    }
    val all = Grid.interleave((1 << 28) - 1, (1 << 28) - 1)
    assert(all == (1L << 56) - 1)
    assert(Grid.cellX(all) == (1 << 28) - 1 && Grid.cellY(all) == (1 << 28) - 1)
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

  test("cellSet equals a TreeSet over the reference encoding (property)") {
    val gen = for {
      theta <- Gen.choose(1, 12)
      g = Grid.world(theta)
      // Points inside cells, exactly on cell edges, on and beyond the
      // border, and at ±∞; drawn from a small pool so duplicates are common.
      xs = Gen.oneOf(Gen.choose(-180.0, 180.0),
                     Gen.choose(0, g.side).map(i => -180.0 + i * g.cellW),
                     Gen.oneOf(-180.0, 180.0, -200.0, 500.0, Double.NegativeInfinity, Double.PositiveInfinity))
      ys = Gen.oneOf(Gen.choose(-90.0, 90.0),
                     Gen.choose(0, g.side).map(i => -90.0 + i * g.cellH),
                     Gen.oneOf(-90.0, 90.0, -95.0, 300.0, Double.NegativeInfinity, Double.PositiveInfinity))
      pool <- Gen.nonEmptyListOf(Gen.zip(xs, ys).map { case (x, y) => Point(x, y) })
      n <- Gen.choose(0, 3 * pool.length)
      pts <- Gen.listOfN(n, Gen.oneOf(pool))
    } yield (g, pts)
    check(Prop.forAll(gen) { case (g, pts) =>
      val ref = scala.collection.mutable.TreeSet.empty[Long]
      pts.foreach(p => ref += GridSpec.refCellOf(g, p.x, p.y))
      g.cellSet(pts).toSeq == ref.toSeq && g.cellSet(pts.toArray[Point]).toSeq == ref.toSeq
    })
  }

  test("cellSet of no points is empty; a NaN point is rejected") {
    val g = Grid.world(5)
    assert(g.cellSet(Nil).isEmpty)
    intercept[IllegalArgumentException](g.cellSet(Seq(Point(1, 1), Point(Double.NaN, 2))))
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

object GridSpec {
  /** Reference z-order encoding: one coordinate bit per step. */
  def refInterleave(x: Int, y: Int): Long = {
    var code = 0L
    var i = 0
    while (i < 28) {
      code |= ((x >> i) & 1L) << (2 * i)
      code |= ((y >> i) & 1L) << (2 * i + 1)
      i += 1
    }
    code
  }

  /** Reference inverse of [[refInterleave]]. */
  def refDeinterleave(c: Long): (Int, Int) = {
    var x = 0; var y = 0
    var i = 0
    while (i < 28) {
      x |= (((c >> (2 * i)) & 1L) << i).toInt
      y |= (((c >> (2 * i + 1)) & 1L) << i).toInt
      i += 1
    }
    (x, y)
  }

  /** Reference point → cell: clamp each grid coordinate into the grid. */
  def refCellOf(g: Grid, x: Double, y: Double): Long = {
    def clamp(i: Int) = math.min(g.side - 1, math.max(0, i))
    refInterleave(clamp(((x - g.space.minX) / g.cellW).toInt),
                  clamp(((y - g.space.minY) / g.cellH).toInt))
  }
}
