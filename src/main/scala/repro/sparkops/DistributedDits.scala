package repro.sparkops

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.core.Grid
import repro.core.dits.SourceSummary
import repro.multisource.{CommStats, DataCenter, Distribution, SourceLink, SourceNode}

/** DITS on Spark: a Spark transport behind the one multi-source protocol.
  *
  * Each data source is one cached partition of an `RDD[(sourceId,
  * SourceNode)]`, built inside the executors. The driver runs a
  * [[DataCenter]] over them, which does all DITS-G routing, clipping,
  * aggregation and `CommStats` accounting. One batch of requests is one
  * broadcast of the per-source payloads, one job over the source
  * partitions and one `collect`; a batch with no payload starts no job.
  */
final class DistributedDits private (val nodes: RDD[(Int, SourceNode)], val grid: Grid) {

  val summaries: Map[Int, SourceSummary] =
    nodes.map { case (s, n) => s -> n.summary }.collect().toMap

  /** The data center over the Spark-resident sources; any strategy. */
  val center: DataCenter = new DataCenter(new SourceLink {
    val summaries: Seq[SourceSummary] = DistributedDits.this.summaries.values.toSeq.sortBy(_.sourceId)
    def ask[P, A](requests: Seq[(Int, P)])(f: (SourceNode, P) => A): Map[Int, A] =
      if (requests.isEmpty) Map.empty
      else {
        val bc = nodes.sparkContext.broadcast(requests.toMap)
        try nodes.flatMap { case (s, n) => bc.value.get(s).map(p => s -> f(n, p)) }.collect().toMap
        finally bc.destroy()
      }
  })

  /** Distributed OJSP under the Clipped strategy: `(sourceId, datasetId,
    * overlap)` and the bytes shipped.
    */
  def overlapTopK(queryCells: Array[Long], k: Int): (Seq[(Int, Int, Int)], CommStats) = {
    val (hits, comm) = center.overlapSearch(grid.centres(queryCells), k, Distribution.Clipped)
    (hits.map(h => (h.sourceId, h.datasetId, h.overlap)), comm)
  }

  /** Distributed CJSP under the Clipped strategy: `(sourceId, datasetId)`
    * picks and the coverage.
    */
  def coverageSearch(queryCells: Array[Long], delta: Double, k: Int): (Seq[(Int, Int)], Int) = {
    val (cov, _) = center.coverageSearch(grid.centres(queryCells), delta, k, Distribution.Clipped)
    (cov.picked, cov.coverage)
  }
}

object DistributedDits {

  /** Build: one row of sorted cells per dataset (`SpatialCells.toCellSets`),
    * grouped by source into one partition per source, where the executor
    * builds that source's `SourceNode`; cached, with root summaries
    * collected to the driver.
    *
    * @param cells distinct `(source_id, dataset_id, cell)` under `grid`
    */
  def build(cells: DataFrame, grid: Grid, capacity: Int): DistributedDits = {
    val sets = SpatialCells.toCellSets(cells).rdd
      .map(r => (r.getInt(0), (r.getInt(1), r.getSeq[Long](2).toArray)))
    val nodes = sets
      .groupByKey(numPartitions = math.max(1, cells.select("source_id").distinct().count().toInt))
      .map { case (s, ds) => (s, new SourceNode(s, grid, ds.toSeq, capacity)) }
      .persist(StorageLevel.MEMORY_AND_DISK)
    new DistributedDits(nodes, grid)
  }
}
