package repro.multisource

import repro.core.{CellSet, Grid}
import repro.core.dits._
import scala.collection.mutable

/** One autonomous data source (Fig. 3): owns its datasets, builds its own
  * DITS-L under its own grid, and answers local search requests from the
  * data center. The query arrives as lon/lat points of cell centres (the
  * center's wire format), which the source re-grids under its own
  * resolution — this is the paper's mechanism for heterogeneous θ.
  */
final class SourceNode(val sourceId: Int, val grid: Grid,
                       datasetsIn: Seq[(Int, Array[Long])], capacity: Int)
    extends Serializable {

  val index: DitsLocal = DitsLocal.build(datasetsIn, capacity)

  /** Root summary sent to the data center after index construction. */
  def summary: SourceSummary = SourceSummary.of(sourceId, index, grid)

  /** Convert lon/lat query points into this source's cell space. */
  def toLocalCells(lonLat: Array[(Double, Double)]): Array[Long] = grid.cellSetOf(lonLat)

  /** Local OJSP endpoint: top-k overlaps for the shipped query portion. */
  def localOverlap(queryLonLat: Array[(Double, Double)], k: Int): Seq[OverlapHit] = {
    val q = toLocalCells(queryLonLat)
    if (q.isEmpty) Seq.empty else OverlapSearch.search(index, q, k)
  }

  /** Local CJSP endpoint for one greedy round: the best (max marginal
    * gain, ties to the smaller id) unexcluded dataset directly connected to
    * the shipped merged set, which is also the covered snapshot: covered
    * cells outside this source's region cannot intersect a local dataset.
    * Returns the dataset id and its cells as lon/lat cell centres.
    */
  def localCoverageRound(mergedLonLat: Array[(Double, Double)], excluded: Set[Int],
                         delta: Double): Option[(Int, Array[(Double, Double)])] = {
    val merged = toLocalCells(mergedLonLat)
    if (merged.isEmpty) return None
    val out = mutable.ArrayBuffer.empty[DatasetNode]
    CoverageSearch.findConnected(index.root, CellSet.mbr(merged), merged, delta, out)
    CoverageSearch.bestGain(out, merged)(d => !excluded(d.id))
      .map(d => (d.id, grid.centres(d.cells)))
  }
}
