package repro.multisource

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, SynthSpatial}
import repro.core.baselines.{BruteForce, StandardGreedy}
import repro.core.dits.{DitsGlobal, SourceSummary}
import scala.util.Random

/** The data center + sources framework: exactness of multi-source OJSP
  * under all three distribution strategies, byte-count ordering, and CJSP
  * agreement with the single-pool greedy.
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
}
