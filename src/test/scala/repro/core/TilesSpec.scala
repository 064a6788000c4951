package repro.core

import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite

/** `CellSet.Tiles`, the tile-run view of a cell set that OJSP's probe,
  * `Cover` and `NeighborIndex` read, and the run-level kernels over it,
  * each against the per-cell definitions (`connected`, `marginalGain`,
  * `union`).
  */
class TilesSpec extends AnyFunSuite {

  private def check(prop: Prop): Unit = {
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }

  private def cells(xys: Seq[(Int, Int)]): Array[Long] = CellSet.of(xys.map { case (x, y) => Grid.interleave(x, y) })
  private def show(cs: Array[Long]) = cs.map(c => (Grid.cellX(c), Grid.cellY(c))).mkString("{", " ", "}")

  /** The invariants of `Tiles` over `cs`, as a list of failures. */
  private def violations(cs: Array[Long]): Seq[String] = {
    val t = new CellSet.Tiles(cs)
    val runs = (0 until t.size).map(r => cs.slice(t.from(r), t.from(r + 1)))
    Seq(
      "cells" -> (t.cells eq cs),
      "partition" -> (t.from.length == t.size + 1 && t.from(0) == 0 && t.from(t.size) == cs.length &&
                      (0 until t.size).forall(r => t.from(r) < t.from(r + 1))),
      "one tile per run" -> runs.indices.forall(r => runs(r).forall(c => CellSet.tileOf(c) == t.tile(r))),
      "tiles ascend" -> (1 until t.size).forall(r => t.tile(r - 1) < t.tile(r)),
      "mask" -> runs.indices.forall(r => t.mask(r) == runs(r).foldLeft(0L)((m, c) => m | (1L << (c & 63))) &&
                                         java.lang.Long.bitCount(t.mask(r)) == runs(r).length),
      "box" -> (t.box.length == 4 * t.size && runs.indices.forall { r =>
        val xs = runs(r).map(Grid.cellX); val ys = runs(r).map(Grid.cellY)
        t.box.slice(4 * r, 4 * r + 4).toSeq == Seq(xs.min, xs.max, ys.min, ys.max)
      }),
      "xy" -> (t.xy.toSeq == CellSet.packXY(cs).toSeq),
    ).collect { case (name, false) => name }
  }

  test("Tiles of the empty set and of single-tile sets") {
    val empty = new CellSet.Tiles(Array.emptyLongArray)
    assert(empty.size == 0 && empty.from.toSeq == Seq(0) && empty.box.isEmpty && empty.xy.isEmpty)
    val block = cells(for (x <- 8 until 16; y <- 16 until 24) yield (x, y))
    val full = new CellSet.Tiles(block)
    assert(full.size == 1 && full.mask(0) == -1L && full.tile(0) == CellSet.tileOf(block(0)))
    assert(full.box.toSeq == Seq(8, 15, 16, 23) && full.from.toSeq == Seq(0, 64))
    val one = new CellSet.Tiles(cells(Seq((13, 18))))
    assert(one.size == 1 && one.box.toSeq == Seq(13, 13, 18, 18) && java.lang.Long.bitCount(one.mask(0)) == 1)
    for (cs <- Seq(Array.emptyLongArray, block, cells(Seq((13, 18))), cells(Seq((15, 23), (8, 16)))))
      assert(violations(cs).isEmpty, show(cs))
  }

  test("Tiles partition the cells in order into ascending tile runs with exact masks and boxes (property)") {
    val coord = (top: Int) => Gen.frequency(2 -> Gen.oneOf(0, top), 3 -> Gen.choose(0, top))
    val sets = for {
      theta <- Gen.oneOf(1, 3, 4, 6, 16, 28)
      top = (1 << theta) - 1
      n <- Gen.frequency(1 -> Gen.const(0), 3 -> Gen.choose(1, 6), 3 -> Gen.choose(7, 200))
      xys <- Gen.listOfN(n, Gen.zip(coord(top), coord(top)))
    } yield cells(xys)
    check(Prop.forAll(sets)(cs => Prop(violations(cs).isEmpty) :| s"${violations(cs)} cells=${show(cs)}"))
  }

  /** Probe sets made of whole tile runs around a small index set on a
    * 2^θ × 2^θ grid: each run is an aligned 8×8 tile at or next to a
    * tile of the index (or anywhere), with a random, full, one-row,
    * one-column or one-cell mask, so runs straddle bucket edges (the side
    * is max(1, ⌈δ⌉) here) and the members' box.
    */
  private val runCases: Gen[(Array[Long], Array[Long], Double)] = for {
    theta <- Gen.oneOf(3, 4, 5, 6)
    top = (1 << theta) - 1
    tiles = math.max(1, (top + 1) / 8)
    index <- Gen.frequency(1 -> Gen.const(Seq.empty[(Int, Int)]),
                           6 -> Gen.choose(1, 8).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(0, top), Gen.choose(0, top)))))
    tile = index.headOption.map { case (x, y) => (x / 8, y / 8) }.getOrElse((0, 0))
    runs <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, for {
      (tx, ty) <- Gen.frequency(
        3 -> Gen.zip(Gen.choose(-1, 1), Gen.choose(-1, 1)).map { case (dx, dy) => (tile._1 + dx, tile._2 + dy) },
        1 -> Gen.zip(Gen.choose(0, tiles - 1), Gen.choose(0, tiles - 1)))
      bits <- Gen.oneOf(Gen.long.map(Seq(_)), Gen.const(Seq(-1L)),
                        Gen.choose(0, 7).map(r => Seq(0xffL << (8 * r))), Gen.choose(0, 63).map(b => Seq(1L << b)))
      cols <- Gen.choose(0, 7)
      line <- Gen.oneOf(true, false)
    } yield for (i <- 0 until 64 if (bits.head >>> i & 1) != 0) yield {
      // bit i of the mask is the cell (i % 8, i / 8) of the tile, or with
      // `line` the column `cols` of it, so rows and columns both occur
      val (cx, cy) = if (line) (cols, i % 8) else (i % 8, i / 8)
      (tx * 8 + cx, ty * 8 + cy)
    }))
    delta <- Gen.oneOf(0.0, 0.5, 1.0, 1.5, 5.0, 7.9, 8.0, Double.PositiveInfinity)
  } yield {
    val onGrid = runs.flatten.filter { case (x, y) => x >= 0 && y >= 0 && x <= top && y <= top }
    (cells(index), cells(onGrid), delta)
  }

  test("NeighborIndex.connectedTo(tiles) ≡ CellSet.connected for runs across bucket edges and the box (property)") {
    check(Prop.forAll(runCases) { case (a, b, delta) =>
      val exp = CellSet.connected(a, b, delta)
      val t = new CellSet.Tiles(b)
      Prop(new CellSet.NeighborIndex(a, delta).connectedTo(t) == exp &&
           CellSet.NeighborIndex.packed(new CellSet.Tiles(a).xy, delta).connectedTo(t) == exp) :|
        s"a=${show(a)} b=${show(b)} δ=$delta expected $exp"
    })
  }

  test("Cover.gain and add over Tiles ≡ marginalGain and union (property)") {
    val set = for {
      theta <- Gen.oneOf(3, 5, 8)
      top = (1 << theta) - 1
      n <- Gen.frequency(1 -> Gen.const(0), 4 -> Gen.choose(1, 40), 1 -> Gen.choose(41, 300))
      xys <- Gen.listOfN(n, Gen.zip(Gen.choose(0, top), Gen.choose(0, top)))
    } yield cells(xys)
    check(Prop.forAll(set, Gen.choose(0, 10).flatMap(Gen.listOfN(_, set))) { (init, ds) =>
      val cover = new CellSet.Cover(new CellSet.Tiles(init))
      var ref = init
      val bad = ds.filterNot { d =>
        val t = new CellSet.Tiles(d)
        val ok = cover.gain(t) == CellSet.marginalGain(d, ref)
        cover.add(t); ref = CellSet.union(ref, d)
        ok && cover.size == ref.length && cover.gain(t) == 0
      }
      Prop(bad.isEmpty && cover.gain(new CellSet.Tiles(ref)) == 0) :| s"failed on ${bad.map(show)}"
    })
  }
}
