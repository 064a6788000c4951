package repro.multisource

import repro.core.{CellSet, Grid, MBR, Point}
import repro.core.dits.{DitsGlobal, OverlapHit, SourceSummary}
import scala.collection.mutable

/** Query distribution strategies of Section VI-A. */
sealed trait Distribution
object Distribution {
  /** Naïve: ship the full query to every source (no DITS-G). */
  case object Broadcast extends Distribution
  /** Strategy 1: ship the full query, but only to DITS-G candidates. */
  case object Candidates extends Distribution
  /** Strategy 2: ship only the query portion intersecting each
    * candidate's root MBR (± δ for coverage) — fewest bytes.
    */
  case object Clipped extends Distribution
}

/** A multi-source OJSP result: hits tagged with their source. */
final case class MultiHit(sourceId: Int, datasetId: Int, overlap: Int)

/** A multi-source CJSP result. */
final case class MultiCoverage(picked: Seq[(Int, Int)], coverage: Int)

/** The data center (Fig. 3): holds DITS-G, routes queries to candidate
  * sources under a distribution strategy, aggregates their answers, and
  * accounts every byte crossing the center↔source boundary.
  *
  * The wire format for queries is lon/lat cell-centre points, so sources
  * with different grid resolutions can re-grid the query locally
  * (Section V-B).
  */
final class DataCenter(sources: Seq[SourceNode]) {

  private val bySrc: Map[Int, SourceNode] = sources.map(s => s.sourceId -> s).toMap
  val global: DitsGlobal = DitsGlobal.build(sources.map(_.summary))

  /** Query as lon/lat points (cell centres of the user's cell-based query
    * under the center's reference grid).
    */
  def overlapSearch(queryLonLat: Array[(Double, Double)], k: Int,
                    strategy: Distribution): (Seq[MultiHit], CommStats) = {
    val comm = new CommStats
    if (queryLonLat.isEmpty) return (Nil, comm)
    val qRect = MBR.of(queryLonLat.map { case (x, y) => Point(x, y) })
    val targets: Seq[SourceSummary] = strategy match {
      case Distribution.Broadcast => sources.map(_.summary)
      case _                      => global.overlapCandidates(qRect)
    }
    val all = mutable.ArrayBuffer.empty[MultiHit]
    targets.foreach { t =>
      val payload = strategy match {
        case Distribution.Clipped =>
          queryLonLat.filter { case (x, y) => t.lonLatRect.contains(Point(x, y)) }
        case _ => queryLonLat
      }
      if (payload.nonEmpty) {
        comm.sendCells(payload.length)
        val hits = bySrc(t.sourceId).localOverlap(payload, k)
        comm.receiveHits(hits.length)
        hits.foreach(h => all += MultiHit(t.sourceId, h.id, h.overlap))
      }
    }
    (all.sortBy(h => (-h.overlap, h.sourceId, h.datasetId)).take(k).toSeq, comm)
  }

  /** Multi-source CJSP: k greedy rounds; each round ships the merged set
    * (clipped per strategy) to candidate sources, receives each source's
    * best connected candidate, picks the global best, and merges its
    * cells into the covered set.
    */
  def coverageSearch(queryLonLat: Array[(Double, Double)], delta: Double, k: Int,
                     strategy: Distribution): (MultiCoverage, CommStats) = {
    val comm = new CommStats
    if (queryLonLat.isEmpty) return (MultiCoverage(Nil, 0), comm)
    // Covered set tracked under a reference grid (finest of the sources)
    // so coverage counting is well-defined across sources.
    val refGrid = sources.map(_.grid).maxBy(_.theta)
    var covered = CellSet.of(queryLonLat.map { case (x, y) => refGrid.cellOf(x, y) })
    var mergedPts = queryLonLat.distinct
    val picked = mutable.ArrayBuffer.empty[(Int, Int)]
    val excluded = mutable.HashMap.empty[Int, Set[Int]].withDefaultValue(Set.empty)

    var it = 0
    var exhausted = false
    while (it < k && !exhausted) {
      val qRect = MBR.of(mergedPts.map { case (x, y) => Point(x, y) })
      val targets = strategy match {
        case Distribution.Broadcast => sources.map(_.summary)
        case _                      => global.coverageCandidates(qRect, delta)
      }
      var best: Option[(Int, Int, Int, Array[(Double, Double)])] = None // (src, id, gain, cells)
      targets.foreach { t =>
        // +1 cell margin: shipped cell centres are up to half a cell away
        // from the grid-coordinate corners δ is defined on.
        val slack = (delta + 1) * math.max(t.grid.cellW, t.grid.cellH)
        val payload = strategy match {
          case Distribution.Clipped =>
            val clipRect = t.lonLatRect.expand(slack)
            mergedPts.filter { case (x, y) => clipRect.contains(Point(x, y)) }
          case _ => mergedPts
        }
        if (payload.nonEmpty) {
          // The clipped merged set serves as both the connectivity probe and
          // the covered snapshot: covered cells outside the source's region
          // cannot intersect any local dataset, so local gains stay exact.
          comm.sendCells(payload.length)
          val resp = bySrc(t.sourceId)
            .localCoverageRound(payload, payload, excluded(t.sourceId), delta)
          resp match {
            case Some((id, _, cells)) =>
              comm.receiveCells(cells.length)
              // Re-rank by gain under the reference grid for fairness.
              val g = CellSet.marginalGain(
                CellSet.of(cells.map { case (x, y) => refGrid.cellOf(x, y) }), covered)
              val beats = best match {
                case None => true
                case Some((bs, bid, bg, _)) =>
                  g > bg || (g == bg && (t.sourceId < bs || (t.sourceId == bs && id < bid)))
              }
              if (beats) best = Some((t.sourceId, id, g, cells))
            case None => comm.receiveHits(0)
          }
        }
      }
      best match {
        case Some((src, id, _, cells)) =>
          picked += ((src, id))
          excluded(src) = excluded(src) + id
          covered = CellSet.union(covered,
            CellSet.of(cells.map { case (x, y) => refGrid.cellOf(x, y) }))
          mergedPts = (mergedPts ++ cells).distinct
        case None => exhausted = true
      }
      it += 1
    }
    (MultiCoverage(picked.toSeq, covered.length), comm)
  }
}
