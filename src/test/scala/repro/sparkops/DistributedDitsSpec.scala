package repro.sparkops

import org.apache.spark.BroadcastBlocks
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, SynthData}
import repro.core.{CellSet, Grid, SynthSpatial}
import repro.core.baselines.StandardGreedy
import repro.multisource.{CommStats, DataCenter, Distribution, SourceNode}
import scala.util.Random

/** The distributed DITS operator: per-source partition indexes + driver
  * DITS-G must answer exactly like the pooled single-machine algorithms,
  * and its data center must answer and count exactly like one over
  * in-process sources.
  */
class DistributedDitsSpec extends SparkSpec {

  private val theta = 9
  private val grid = Grid.world(theta)
  private lazy val specs = SynthSpatial.testSources(3, 20, 30)
  private lazy val cells =
    SpatialCells.toCells(SynthData.spatialSources(spark, specs), grid).cache()
  private lazy val dits = DistributedDits.build(cells, grid, capacity = 5)
  private lazy val coreDatasets: IndexedSeq[(Int, Int, Array[Long])] =
    specs.flatMap { spec =>
      SynthSpatial.cellSource(spec, grid).map { case (id, cs) => (spec.sourceId, id, cs) }
    }

  test("build produces one local index per source with full membership") {
    val bySource = dits.nodes.collect().toMap
    assert(bySource.keySet == specs.map(_.sourceId).toSet)
    specs.foreach { spec =>
      val ix = bySource(spec.sourceId).index
      assert(ix.size == spec.nDatasets)
    }
  }

  test("root summaries match the built indexes") {
    assert(dits.summaries.keySet == specs.map(_.sourceId).toSet)
    dits.summaries.values.foreach { s =>
      val r = s.lonLatRect
      assert(r.minX < r.maxX && r.minY < r.maxY)
    }
  }

  for (seed <- 0 until 5) {
    test(s"distributed OJSP equals pooled brute force (seed=$seed)") {
      val rnd = new Random(seed)
      val q = coreDatasets(rnd.nextInt(coreDatasets.length))._3
      val k = 8
      val (hits, comm) = dits.overlapTopK(q, k)
      val exp = coreDatasets
        .map { case (s, d, cs) => (s, d, CellSet.intersectionSize(cs, q)) }
        .filter(_._3 > 0)
        .sortBy { case (s, d, ov) => (-ov, s, d) }
        .take(k)
      assert(hits == exp)
      assert(comm.bytesSent <= (8L * q.length + CommStats.HeaderBytes) * specs.length,
             "clipping must not inflate traffic")
    }
  }

  for (seed <- 0 until 3) {
    test(s"distributed CJSP equals pooled greedy (seed=$seed)") {
      val rnd = new Random(50 + seed)
      val q = coreDatasets(rnd.nextInt(coreDatasets.length))._3
      val delta = 3.0; val k = 5
      val (picked, cov) = dits.coverageSearch(q, delta, k)
      val pool = coreDatasets.sortBy(t => (t._1, t._2)).map { case (s, d, cs) =>
        (s * 1_000_000 + d) -> cs
      }
      val exp = StandardGreedy.sg(pool, q, delta, k)
      assert(picked.map { case (s, d) => s * 1_000_000 + d } == exp.picked)
      assert(cov == exp.coverage)
    }
  }

  test("an empty query picks nothing and ships nothing") {
    assert(dits.coverageSearch(Array.emptyLongArray, 3.0, 5) == ((Nil, 0)))
    val (hits, comm) = dits.overlapTopK(Array.emptyLongArray, 5)
    assert(hits == Nil && comm.messages == 0 && comm.total == 0)
  }

  test("searches leave none of their broadcasts on the driver") {
    val q = coreDatasets(3)._3
    dits.overlapTopK(q, 8) // builds the index and DITS-G first
    val before = BroadcastBlocks.liveValueIds()
    dits.overlapTopK(q, 8)
    dits.coverageSearch(q, 3.0, 5)
    eventually(timeout(20.seconds), interval(50.millis)) {
      assert(BroadcastBlocks.liveValueIds() -- before == Set.empty)
    }
  }

  test("queries far from every source ship nothing and return nothing") {
    val q = CellSet.of(Seq(Grid.interleave(1, 1))) // lon/lat ≈ (-180, -90)
    val (hits, comm) = dits.overlapTopK(q, 5)
    assert(hits.isEmpty && comm.messages == 0 && comm.total == 0)
  }

  private lazy val local = new DataCenter(specs.map { spec =>
    new SourceNode(spec.sourceId, grid,
                   coreDatasets.collect { case (s, d, cs) if s == spec.sourceId => (d, cs) }, 5)
  })
  private def lonLat(cells: Array[Long]): Array[(Double, Double)] =
    cells.map { c => val p = grid.cellRect(c).pivot; (p.x, p.y) }
  private def counts(c: CommStats) = (c.messages, c.bytesSent, c.bytesReceived)
  private lazy val queries =
    Seq(coreDatasets(3)._3, coreDatasets(41)._3, CellSet.of(Seq(Grid.interleave(1, 1))))

  for (st <- Seq(Distribution.Broadcast, Distribution.Candidates, Distribution.Clipped)) {
    test(s"the Spark transport answers and counts like in-process sources under $st") {
      for ((q, i) <- queries.map(lonLat).zipWithIndex) {
        val (hits, oc) = dits.center.overlapSearch(q, 8, st)
        val (expHits, expOc) = local.overlapSearch(q, 8, st)
        assert(hits == expHits && (i == 2 || hits.nonEmpty), s"query $i")
        assert(counts(oc) == counts(expOc), s"query $i")
        val (cov, cc) = dits.center.coverageSearch(q, 3.0, 5, st)
        val (expCov, expCc) = local.coverageSearch(q, 3.0, 5, st)
        assert(cov == expCov && (i == 2 || cov.picked.nonEmpty), s"query $i")
        assert(counts(cc) == counts(expCc), s"query $i")
      }
    }
  }

  test("a query that ships no payload starts no Spark job") {
    val sc = spark.sparkContext
    sc.setJobGroup("far-query", "far query")
    try {
      assert(dits.overlapTopK(queries(2), 5)._1.isEmpty)
      assert(dits.coverageSearch(queries(2), 3.0, 5)._1.isEmpty)
    } finally sc.clearJobGroup()
    assert(sc.statusTracker.getJobIdsForGroup("far-query").isEmpty)
  }

  test("dataflow OJSP top-k equals pooled brute force on the same queries") {
    val s = spark
    import s.implicits._
    queries.foreach { q =>
      val got = SparkJoinable.overlapTopK(cells, q.toSeq.toDF("cell"), 8).collect()
        .map(r => (r.getInt(0), r.getInt(1), r.getLong(2).toInt)).toSeq
      val exp = coreDatasets
        .map { case (s, d, cs) => (s, d, CellSet.intersectionSize(cs, q)) }
        .filter(_._3 > 0)
        .sortBy { case (s, d, ov) => (-ov, s, d) }
        .take(8)
      assert(got == exp)
    }
  }
}
