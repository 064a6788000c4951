package repro.sparkops

import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{CellSet, Grid, SynthSpatial}
import repro.core.baselines.BruteForce

/** Pure-dataflow OJSP operators: oracle-checked against DuckDB and
  * cross-checked against the core brute force.
  */
class SparkJoinableSpec extends SparkSpec {

  private val theta = 8
  private val grid = Grid.world(theta)
  private lazy val specs = SynthSpatial.testSources(2, 15, 30)
  private lazy val cells =
    SpatialCells.toCells(SynthData.spatialSources(spark, specs), grid).cache()
  private lazy val coreDatasets: IndexedSeq[(Int, Int, Array[Long])] =
    specs.flatMap { spec =>
      SynthSpatial.cellSource(spec, grid).map { case (id, cs) => (spec.sourceId, id, cs) }
    }
  private lazy val queryCells: Array[Long] = coreDatasets(4)._3

  private def queryDf = {
    import spark.implicits._
    queryCells.toSeq.toDF("cell")
  }

  test("oracle: overlaps equals DuckDB join-group-count") {
    val got = SparkJoinable.overlaps(cells, queryDf)
    Oracle.assertEquivalent(got,
      """SELECT c.source_id, c.dataset_id, COUNT(*) AS overlap
        |FROM cells c JOIN qcells q ON c.cell = q.cell
        |GROUP BY c.source_id, c.dataset_id""".stripMargin,
      "cells" -> cells, "qcells" -> queryDf)
  }

  test("overlapTopK agrees with core brute force") {
    val k = 8
    val got = SparkJoinable.overlapTopK(cells, queryDf, k).collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getLong(2).toInt)).toSeq
    val exp = coreDatasets
      .map { case (s, d, cs) => (s, d, CellSet.intersectionSize(cs, queryCells)) }
      .filter(_._3 > 0)
      .sortBy { case (s, d, ov) => (-ov, s, d) }
      .take(k)
    assert(got == exp)
  }
}
