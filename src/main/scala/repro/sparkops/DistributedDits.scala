package repro.sparkops

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.{CellSet, Grid, MBR, Point}
import repro.core.dits._

/** DITS as a distributed Spark index (the distributed_dataflow mapping).
  *
  * Each data source is one partition of an `RDD[(sourceId, DitsLocal)]`:
  * the cell relation is grouped by source and each executor task builds
  * that source's DITS-L locally. Root summaries are collected to the
  * driver, which plays the data-center role with DITS-G.
  *
  * A search is then a pruned partition-parallel operator: the driver
  * consults DITS-G for candidate sources, clips the query per source
  * (strategy 2 of Section VI-A), and ships only the clipped cells into the
  * matching partitions; per-source results are aggregated on the driver.
  */
final class DistributedDits private (
    val indexes: RDD[(Int, DitsLocal)],
    val summaries: Map[Int, SourceSummary],
    val grid: Grid,
) extends Serializable {

  @transient lazy val global: DitsGlobal = DitsGlobal.build(summaries.values.toSeq)

  /** Distributed OJSP: DITS-G candidate pruning + per-partition
    * OverlapSearch + driver-side top-k merge.
    * Returns `(sourceId, datasetId, overlap)` and the cells shipped count
    * (the strategy-2 communication proxy).
    */
  def overlapTopK(queryCells: Array[Long], k: Int): (Seq[(Int, Int, Int)], Long) = {
    if (queryCells.isEmpty) return (Seq.empty, 0L)
    val qRect = grid.cellSpaceToLonLat(CellSet.mbr(queryCells))
    val cands = global.overlapCandidates(qRect).map(_.sourceId).toSet
    // Strategy 2: clip the query per candidate source to its root MBR.
    val clipped: Map[Int, Array[Long]] = cands.iterator.map { s =>
      val rect = grid.lonLatToCellSpace(summaries(s).lonLatRect)
      s -> queryCells.filter { c =>
        val x = Grid.cellX(c); val y = Grid.cellY(c)
        rect.intersects(MBR(x, y, x + 1, y + 1))
      }
    }.toMap
    val shipped = clipped.valuesIterator.map(_.length.toLong).sum
    val bc = indexes.sparkContext.broadcast(clipped)
    val perSource = indexes
      .filter { case (s, _) => bc.value.contains(s) }
      .flatMap { case (s, ix) =>
        val q = bc.value(s)
        if (q.isEmpty) Iterator.empty
        else OverlapSearch.search(ix, q, k).iterator.map(h => (s, h.id, h.overlap))
      }
    val hits = try perSource.collect() finally bc.destroy()
    (hits.sortBy { case (s, id, ov) => (-ov, s, id) }.take(k).toSeq, shipped)
  }

  /** Distributed CJSP: k greedy rounds; each round runs FindConnectSet +
    * best-gain selection inside candidate partitions on the broadcast
    * merged set, and the driver merges the global best.
    */
  def coverageSearch(queryCells: Array[Long], delta: Double, k: Int): (Seq[(Int, Int)], Int) = {
    if (queryCells.isEmpty) return (Nil, 0)
    var covered = CellSet.of(queryCells)
    var picked = List.empty[(Int, Int)]
    var exhausted = false
    var it = 0
    while (it < k && !exhausted) {
      val mRect = CellSet.mbr(covered)
      val qRect = grid.cellSpaceToLonLat(mRect)
      val cands = global.coverageCandidates(qRect, delta).map(_.sourceId).toSet
      val bcCovered = indexes.sparkContext.broadcast(covered)
      val bcPicked = indexes.sparkContext.broadcast(picked.toSet)
      val perSource = indexes
        .filter { case (s, _) => cands.contains(s) }
        .flatMap { case (s, ix) =>
          val cov = bcCovered.value
          val out = scala.collection.mutable.ArrayBuffer.empty[DatasetNode]
          CoverageSearch.findConnected(ix.root, CellSet.mbr(cov), cov, delta, out)
          var tau = -1; var bid = -1; var bcells: Array[Long] = null
          out.sortBy(_.id).foreach { d =>
            if (!bcPicked.value.contains((s, d.id)) && d.cells.length > tau) {
              val g = CellSet.marginalGain(d.cells, cov)
              if (g > tau) { tau = g; bid = d.id; bcells = d.cells }
            }
          }
          if (bid < 0) Iterator.empty else Iterator.single((s, bid, tau, bcells))
        }
      val found = try perSource.collect() finally { bcCovered.destroy(); bcPicked.destroy() }
      val best = found.sortBy { case (s, id, g, _) => (-g, s, id) }.headOption
      best match {
        case Some((s, id, _, cells)) =>
          picked = picked :+ ((s, id))
          covered = CellSet.union(covered, cells)
        case None => exhausted = true
      }
      it += 1
    }
    (picked, covered.length)
  }
}

object DistributedDits {

  /** Build: group the cell relation by source, build one DITS-L per
    * source inside executors (one partition per source), cache, and
    * collect root summaries to the driver.
    *
    * @param cells distinct `(source_id, dataset_id, cell)` under `grid`
    */
  def build(cells: DataFrame, grid: Grid, capacity: Int): DistributedDits = {
    val rdd: RDD[(Int, DitsLocal)] = cells
      .select("source_id", "dataset_id", "cell").rdd
      .map(r => ((r.getInt(0), r.getInt(1)), r.getLong(2)))
      .groupByKey()
      .map { case ((s, d), cs) => (s, (d, CellSet.of(cs))) }
      .groupByKey(numPartitions = math.max(1,
        cells.select("source_id").distinct().count().toInt))
      .map { case (s, dss) => (s, DitsLocal.build(dss.toSeq, capacity)) }
      .persist(StorageLevel.MEMORY_AND_DISK)
    val summaries = rdd
      .map { case (s, ix) => s -> SourceSummary.of(s, ix, grid) }
      .collect().toMap
    new DistributedDits(rdd, summaries, grid)
  }
}
