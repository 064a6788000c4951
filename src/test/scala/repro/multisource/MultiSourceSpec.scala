package repro.multisource

import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, MBR, SynthSpatial}
import repro.core.baselines.{BruteForce, StandardGreedy}
import repro.core.dits.{DitsGlobal, SourceSummary}
import scala.util.Random

/** The data center + sources framework: exactness of multi-source OJSP
  * under all three distribution strategies, byte-count ordering, CJSP
  * agreement with the single-pool greedy, on fixed seeds and generated
  * worlds, and rejection of degenerate inputs.
  */
class MultiSourceSpec extends AnyFunSuite {

  private val theta = 9
  private val grid = Grid.world(theta)

  private def mkSources(seed: Long = 42L): (IndexedSeq[SourceNode], IndexedSeq[(Int, Int, Array[Long])]) = {
    val specs = SynthSpatial.testSources(3, 25, 35)
    val srcs = specs.map { spec =>
      val ds = SynthSpatial.cellSource(spec, grid, seed)
      new SourceNode(spec.sourceId, grid, ds, 5)
    }
    val all = specs.flatMap { spec =>
      SynthSpatial.cellSource(spec, grid, seed).map { case (id, cells) =>
        (spec.sourceId, id, cells)
      }
    }
    (srcs.toIndexedSeq, all.toIndexedSeq)
  }

  private def toLonLat(cells: Array[Long]): Array[(Double, Double)] =
    cells.map { c => val r = grid.cellRect(c); (r.pivot.x, r.pivot.y) }

  /** Pooled ground truth with (source, dataset) identity. */
  private def pooledTopK(all: IndexedSeq[(Int, Int, Array[Long])],
                         query: Array[Long], k: Int): Seq[(Int, Int, Int)] =
    all.map { case (s, d, cells) => (s, d, CellSet.intersectionSize(cells, query)) }
      .filter(_._3 > 0)
      .sortBy { case (s, d, ov) => (-ov, s, d) }
      .take(k)

  for (seed <- 0 until 5;
       st <- Seq(Distribution.Broadcast, Distribution.Candidates, Distribution.Clipped)) {
    test(s"multi-source OJSP exact under $st (seed=$seed)") {
      val (srcs, all) = mkSources()
      val center = new DataCenter(srcs)
      val rnd = new Random(seed)
      val (_, _, qc) = all(rnd.nextInt(all.length))
      val (hits, _) = center.overlapSearch(toLonLat(qc), 8, st)
      val exp = pooledTopK(all, qc, 8)
      assert(hits.map(h => (h.sourceId, h.datasetId, h.overlap)) == exp)
    }
  }

  for (st <- Seq(Distribution.Broadcast, Distribution.Candidates, Distribution.Clipped)) {
    test(s"an empty query finds nothing and ships nothing under $st") {
      val (srcs, _) = mkSources()
      val center = new DataCenter(srcs)
      val (hits, oc) = center.overlapSearch(Array.empty, 8, st)
      assert(hits.isEmpty)
      val (cov, cc) = center.coverageSearch(Array.empty, 3.0, 5, st)
      assert(cov == MultiCoverage(Nil, 0))
      for (c <- Seq(oc, cc))
        assert(c.messages == 0 && c.bytesSent == 0 && c.bytesReceived == 0)
    }
  }

  test("byte counts: Broadcast ≥ Candidates ≥ Clipped (OJSP)") {
    val (srcs, all) = mkSources()
    val center = new DataCenter(srcs)
    val qc = all(3)._3
    val q = toLonLat(qc)
    val b = center.overlapSearch(q, 8, Distribution.Broadcast)._2
    val c = center.overlapSearch(q, 8, Distribution.Candidates)._2
    val l = center.overlapSearch(q, 8, Distribution.Clipped)._2
    assert(b.bytesSent >= c.bytesSent)
    assert(c.bytesSent >= l.bytesSent)
    assert(b.messages >= c.messages)
  }

  for (seed <- 0 until 4) {
    test(s"multi-source CJSP matches single-pool greedy (seed=$seed)") {
      val (srcs, all) = mkSources()
      val center = new DataCenter(srcs)
      val rnd = new Random(100 + seed)
      val (_, _, qc) = all(rnd.nextInt(all.length))
      val delta = 3.0; val k = 5
      val (mc, _) = center.coverageSearch(toLonLat(qc), delta, k, Distribution.Clipped)
      // Pool with (source, id) ordering identical to the center tie-break.
      val pool = all.sortBy(t => (t._1, t._2)).map { case (s, d, cells) =>
        (s * 1_000_000 + d) -> cells
      }
      val exp = StandardGreedy.sg(pool, qc, delta, k)
      assert(mc.picked.map { case (s, d) => s * 1_000_000 + d } == exp.picked)
      assert(mc.coverage == exp.coverage)
    }
  }

  test("CJSP strategies agree on picks and coverage") {
    val (srcs, all) = mkSources()
    val center = new DataCenter(srcs)
    val qc = all(7)._3
    val q = toLonLat(qc)
    val (a, ca) = center.coverageSearch(q, 3.0, 5, Distribution.Broadcast)
    val (b, cb) = center.coverageSearch(q, 3.0, 5, Distribution.Candidates)
    val (c, cc) = center.coverageSearch(q, 3.0, 5, Distribution.Clipped)
    assert(a == b && b == c)
    assert(ca.bytesSent >= cb.bytesSent && cb.bytesSent >= cc.bytesSent)
  }

  test("DITS-G overlap candidates cover every source with a nonzero hit") {
    val (srcs, all) = mkSources()
    val center = new DataCenter(srcs)
    val qc = all(11)._3
    val qRect = repro.core.MBR.of(toLonLat(qc).map { case (x, y) => repro.core.Point(x, y) })
    val cands = center.global.overlapCandidates(qRect).map(_.sourceId).toSet
    val withHits = all.filter(t => CellSet.intersectionSize(t._3, qc) > 0).map(_._1).toSet
    assert(withHits.subsetOf(cands), s"hits in $withHits but candidates only $cands")
  }

  test("DITS-G coverage candidates cover every source with a connected dataset") {
    val (srcs, all) = mkSources()
    val center = new DataCenter(srcs)
    val qc = all(2)._3
    val delta = 5.0
    val qRect = repro.core.MBR.of(toLonLat(qc).map { case (x, y) => repro.core.Point(x, y) })
    val cands = center.global.coverageCandidates(qRect, delta).map(_.sourceId).toSet
    val connected = all.filter(t => CellSet.connected(t._3, qc, delta)).map(_._1).toSet
    assert(connected.subsetOf(cands))
  }

  test("global index build requires at least one source") {
    intercept[IllegalArgumentException](DitsGlobal.build(Seq.empty))
  }
  private val strategies = Seq(Distribution.Broadcast, Distribution.Candidates, Distribution.Clipped)

  for (st <- strategies) {
    test(s"CJSP rejects δ < 0 and NaN under $st, even for an empty query") {
      val (srcs, all) = mkSources()
      val center = new DataCenter(srcs)
      for (q <- Seq(toLonLat(all(3)._3), Array.empty[(Double, Double)]); delta <- Seq(Double.NaN, -3.0))
        intercept[IllegalArgumentException](center.coverageSearch(q, delta, 5, st))
    }

    test(s"CJSP rejects k ≤ 0 under $st, even for an empty query") {
      val (srcs, all) = mkSources()
      val center = new DataCenter(srcs)
      for (q <- Seq(toLonLat(all(3)._3), Array.empty[(Double, Double)]); k <- Seq(0, -1))
        intercept[IllegalArgumentException](center.coverageSearch(q, 3.0, k, st))
    }

    test(s"OJSP rejects k ≤ 0 under $st for near, far and empty queries") {
      val (srcs, all) = mkSources()
      val center = new DataCenter(srcs)
      val far = toLonLat(CellSet.of(Seq(Grid.interleave(1, 1))))
      for (q <- Seq(toLonLat(all(3)._3), far, Array.empty[(Double, Double)]); k <- Seq(0, -2))
        intercept[IllegalArgumentException](center.overlapSearch(q, k, st))
    }
  }

  /** Generated multi-source worlds on one grid: source `s` holds
    * `(id, cells)` datasets; the pooled id of dataset `d` of source `s` is
    * `s·10⁶ + d`, so pooled id order is (source, id) order.
    */
  private final case class World(theta: Int, sources: IndexedSeq[(Int, IndexedSeq[(Int, Array[Long])])],
                                 query: Array[Long], delta: Double, k: Int) {
    def pooled: IndexedSeq[(Int, Array[Long])] =
      for ((s, ds) <- sources; (d, cs) <- ds) yield (s * 1000000 + d, cs)
    private def show(cs: Array[Long]) = cs.map(c => (Grid.cellX(c), Grid.cellY(c))).mkString("{", " ", "}")
    override def toString: String =
      s"θ=$theta δ=$delta k=$k query=${show(query)} " + sources.map { case (s, ds) =>
        s"source $s: " + ds.map { case (d, cs) => s"$d:${show(cs)}" }.mkString(" ")
      }.mkString("; ")
  }

  /** One source's datasets: 1–5 of 1–4 cells in a random sub-rectangle of
    * columns `0 .. side-2`, with distinct ids in shuffled order.
    */
  private def sourceGen(side: Int): Gen[IndexedSeq[(Int, Array[Long])]] = for {
    x0 <- Gen.choose(0, side - 2); x1 <- Gen.choose(x0, side - 2)
    y0 <- Gen.choose(0, side - 1); y1 <- Gen.choose(y0, side - 1)
    cell = Gen.zip(Gen.choose(x0, x1), Gen.choose(y0, y1)).map { case (x, y) => Grid.interleave(x, y) }
    n <- Gen.choose(1, 5)
    ids <- Gen.pick(n, 0 until 12)
    cells <- Gen.listOfN(n, Gen.choose(1, 4).flatMap(Gen.listOfN(_, cell)))
  } yield ids.toIndexedSeq.zip(cells.map(CellSet.of(_)))

  /** Tiny grids (so gains and overlaps tie), 1–4 sources with their own
    * ids, often one dataset copied into a second source, queries near the
    * sources, empty, or in the last column (outside every source, so each
    * clipped OJSP payload is empty), δ from 0 to unconstrained and k at 1,
    * n and beyond n.
    */
  private val worlds: Gen[World] = for {
    theta <- Gen.oneOf(2, 3, 4, 6)
    side = 1 << theta
    nSrc <- Gen.choose(1, 4)
    srcIds <- Gen.pick(nSrc, 0 until 6)
    sets <- Gen.listOfN(nSrc, sourceGen(side))
    copy <- Gen.zip(Gen.choose(0, 3), Gen.choose(0, 3), Gen.choose(0, 4), Gen.choose(0, 4), Gen.prob(0.5))
    near = Gen.zip(Gen.choose(0, side - 2), Gen.choose(0, side - 1))
    far = Gen.zip(Gen.const(side - 1), Gen.choose(0, side - 1))
    qCells <- Gen.frequency(1 -> Gen.const(Nil), 6 -> Gen.choose(1, 5).flatMap(Gen.listOfN(_, near)),
                            2 -> Gen.choose(1, 3).flatMap(Gen.listOfN(_, far)))
    qCopy <- Gen.frequency(3 -> Gen.const(-1), 1 -> Gen.choose(0, 100))
    delta <- Gen.oneOf(0.0, 1.0, 1.5, 1e9)
    kPick <- Gen.choose(0, 2)
  } yield {
    val srcs = srcIds.toIndexedSeq.zip(sets).map { case (s, ds) => (s, ds.toArray) }
    val (a, b, i, j, doCopy) = copy
    if (doCopy && nSrc > 1 && a % nSrc != b % nSrc) {
      val from = srcs(a % nSrc)._2; val to = srcs(b % nSrc)._2
      to(j % to.length) = (to(j % to.length)._1, from(i % from.length)._2)
    }
    val sources = srcs.map { case (s, ds) => (s, ds.toIndexedSeq) }
    val all = sources.flatMap(_._2)
    val query =
      if (qCopy >= 0) all(qCopy % all.length)._2
      else CellSet.of(qCells.map { case (x, y) => Grid.interleave(x, y) })
    World(theta, sources, query, delta, Seq(1, all.length, all.length + 3)(kPick))
  }

  test("DataCenter ≡ pooled BruteForce and pooled SG under every strategy, bytes ordered (property)") {
    val prop = Prop.forAll(worlds) { w =>
      val g = Grid.world(w.theta)
      val center = new DataCenter(w.sources.map { case (s, ds) => new SourceNode(s, g, ds, 2) })
      val q = w.query.map { c => val p = g.cellRect(c).pivot; (p.x, p.y) }
      val expHits = BruteForce.overlapTopK(w.pooled, w.query, w.k)
        .map(h => (h.id / 1000000, h.id % 1000000, h.overlap))
      val sg = StandardGreedy.sg(w.pooled, w.query, w.delta, w.k)
      val expCov = MultiCoverage(sg.picked.map(id => (id / 1000000, id % 1000000)), sg.coverage)
      val runs = strategies.map { st =>
        val (hits, oc) = center.overlapSearch(q, w.k, st)
        val (cov, cc) = center.coverageSearch(q, w.delta, w.k, st)
        val exact = Prop(hits.map(h => (h.sourceId, h.datasetId, h.overlap)) == expHits) :| s"$st OJSP $hits" &&
          Prop(cov == expCov) :| s"$st CJSP $cov, SG $expCov"
        (exact, (oc.bytesSent, cc.bytesSent))
      }
      val bytes = runs.map(_._2)
      val ordered = bytes.sliding(2).forall { case Seq((o1, c1), (o2, c2)) => o1 >= o2 && c1 >= c2 }
      runs.map(_._1).reduce(_ && _) && Prop(ordered) :| s"bytes sent (Broadcast, Candidates, Clipped): $bytes"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }
  /** Sources at θ = 3–6 each and a query of θ = 6 cell centres, half of
    * them inside some dataset's cells. Every source re-grids the query, so
    * the multi-source top-k is the brute force of each source over its own
    * `toLocalCells(query)`, merged by (−overlap, source, id).
    */
  private final case class Mixed(sources: IndexedSeq[(Int, Int, IndexedSeq[(Int, Array[Long])])],
                                 query: Array[(Double, Double)], k: Int) {
    private def show(cs: Array[Long]) = cs.map(c => (Grid.cellX(c), Grid.cellY(c))).mkString("{", " ", "}")
    override def toString: String =
      s"k=$k query=${query.mkString(" ")} " + sources.map { case (s, t, ds) =>
        s"source $s (θ=$t): " + ds.map { case (d, cs) => s"$d:${show(cs)}" }.mkString(" ")
      }.mkString("; ")
  }

  test("mixed-θ OJSP ≡ per-source brute force over the re-gridded query (property)") {
    val fine = 6
    val cases = for {
      nSrc <- Gen.choose(1, 4)
      srcIds <- Gen.pick(nSrc, 0 until 6)
      sets <- Gen.listOfN(nSrc, Gen.choose(3, fine).flatMap(t => sourceGen(1 << t).map(t -> _)))
      seed <- Gen.long
      kPick <- Gen.choose(0, 2)
    } yield {
      val srcs = srcIds.toIndexedSeq.zip(sets).map { case (s, (t, ds)) => (s, t, ds) }
      val rnd = new Random(seed)
      val fineGrid = Grid.world(fine)
      val inside = Seq.fill(1 + rnd.nextInt(4)) {
        val (_, t, ds) = srcs(rnd.nextInt(srcs.length))
        val cs = ds(rnd.nextInt(ds.length))._2
        val scale = 1 << (fine - t)
        val c = cs(rnd.nextInt(cs.length))
        Grid.interleave(Grid.cellX(c) * scale + rnd.nextInt(scale), Grid.cellY(c) * scale + rnd.nextInt(scale))
      }
      val anywhere = Seq.fill(rnd.nextInt(5))(Grid.interleave(rnd.nextInt(1 << fine), rnd.nextInt(1 << fine)))
      val q = CellSet.of(inside ++ anywhere).map { c => val p = fineGrid.cellRect(c).pivot; (p.x, p.y) }
      val n = srcs.map(_._3.length).sum
      Mixed(srcs, q, Seq(1, n, n + 3)(kPick))
    }
    val prop = Prop.forAll(cases) { case Mixed(srcs, q, k) =>
      val nodes = srcs.map { case (s, t, ds) => new SourceNode(s, Grid.world(t), ds, 2) }
      val center = new DataCenter(nodes)
      val exp = srcs.zip(nodes).flatMap { case ((s, _, ds), node) =>
        val local = node.toLocalCells(q)
        ds.map { case (d, cs) => (s, d, CellSet.intersectionSize(cs, local)) }
      }.filter(_._3 > 0).sortBy { case (s, d, ov) => (-ov, s, d) }.take(k)
      strategies.map { st =>
        val got = center.overlapSearch(q, k, st)._1.map(h => (h.sourceId, h.datasetId, h.overlap))
        Prop(got == exp) :| s"$st got=$got expected=$exp"
      }.reduce(_ && _)
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status.toString)
  }

  /** 1–40 summaries (so capacity-2 DITS-G trees are several levels deep),
    * each a whole-cell rect on its own grid, θ ∈ {3..12}.
    */
  private val summaries: Gen[IndexedSeq[SourceSummary]] = for {
    n <- Gen.choose(1, 40)
    ss <- Gen.listOfN(n, for {
      theta <- Gen.choose(3, 12)
      g = Grid.world(theta)
      x0 <- Gen.choose(0, g.side - 1); y0 <- Gen.choose(0, g.side - 1)
      w <- Gen.choose(1, math.max(1, g.side / 4)); h <- Gen.choose(1, math.max(1, g.side / 4))
    } yield (g, MBR(x0, y0, math.min(g.side, x0 + w), math.min(g.side, y0 + h))))
  } yield ss.toIndexedSeq.zipWithIndex.map { case ((g, r), i) => SourceSummary(i, g.cellSpaceToLonLat(r), g) }

  private val routingDeltas = Seq(0.0, 0.5, 1.5, 5.0, 1e9)

  /** A query rect beside, above or diagonal to one summary: touching it,
    * at its δ-reach, a hair inside or outside that reach, or anywhere.
    */
  private def nearQuery(ss: IndexedSeq[SourceSummary]): Gen[MBR] = for {
    s <- Gen.oneOf(ss)
    delta <- Gen.oneOf(routingDeltas)
    reach = s.reach(delta)
    gap <- Gen.oneOf(Gen.const(0.0), Gen.const(reach), Gen.const(reach * (1 - 1e-12)),
                     Gen.const(reach * (1 + 1e-12)), Gen.choose(0.0, 400.0))
    dir <- Gen.choose(0, 2)
    w <- Gen.oneOf(Gen.const(0.0), Gen.choose(0.0, 30.0))
    h <- Gen.oneOf(Gen.const(0.0), Gen.choose(0.0, 30.0))
  } yield {
    val r = s.lonLatRect
    val (x, y) = dir match {
      case 0 => (r.maxX + gap, r.minY)
      case 1 => (r.minX, r.maxY + gap)
      case _ => (r.maxX + gap / math.sqrt(2), r.maxY + gap / math.sqrt(2))
    }
    MBR(x, y, x + w, y + h)
  }

  test("DITS-G routing ≡ flat intersects and δ-reach filters over every summary (property)") {
    val anywhere = for {
      x <- Gen.choose(-200.0, 200.0); y <- Gen.choose(-100.0, 100.0)
      w <- Gen.choose(0.0, 60.0); h <- Gen.choose(0.0, 60.0)
    } yield MBR(x, y, x + w, y + h)
    val cases = for {
      ss <- summaries
      qs <- Gen.listOfN(8, Gen.frequency(3 -> nearQuery(ss), 1 -> anywhere))
    } yield (ss, qs)
    val prop = Prop.forAll(cases) { case (ss, qs) =>
      val global = DitsGlobal.build(ss)
      def ids(c: Seq[SourceSummary]) = c.map(_.sourceId).sorted
      qs.map { q =>
        val ojsp = Prop(ids(global.overlapCandidates(q)) == ids(ss.filter(_.lonLatRect.intersects(q)))) :|
          s"overlap candidates for $q"
        routingDeltas.map { d =>
          Prop(ids(global.coverageCandidates(q, d)) == ids(ss.filter(s => s.lonLatRect.minDist(q) <= s.reach(d)))) :|
            s"coverage candidates for $q, δ=$d"
        }.foldLeft(ojsp)(_ && _)
      }.reduce(_ && _) :| s"summaries ${ss.mkString(" ")}"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }
}
