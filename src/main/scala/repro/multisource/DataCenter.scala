package repro.multisource

import repro.core.{CellSet, MBR, Point}
import repro.core.dits.{DitsGlobal, SourceSummary}
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

object MultiHit {
  /** The pooled OJSP order: [[repro.core.dits.OverlapHit.ordering]] with
    * the source id before the dataset id, so higher overlap first, then
    * the smaller source id, then the smaller dataset id.
    */
  implicit val ordering: Ordering[MultiHit] = (a, b) =>
    if (a.overlap != b.overlap) Integer.compare(b.overlap, a.overlap)
    else if (a.sourceId != b.sourceId) Integer.compare(a.sourceId, b.sourceId)
    else Integer.compare(a.datasetId, b.datasetId)
}

/** A multi-source CJSP result. */
final case class MultiCoverage(picked: Seq[(Int, Int)], coverage: Int)

/** How the data center reaches its sources: their root summaries, sent
  * once after the local builds, and one batch of requests per call. The
  * center does all routing, clipping and byte accounting, so every
  * transport counts the same bytes; a transport only carries the batch.
  */
trait SourceLink {
  def summaries: Seq[SourceSummary]

  /** Runs `f` on each source named in `requests` with its payload and
    * returns the replies by source id. `f` travels to wherever the sources
    * are, so it captures nothing but scalars.
    */
  def ask[P, A](requests: Seq[(Int, P)])(f: (SourceNode, P) => A): Map[Int, A]
}

object SourceLink {
  /** Sources that live in this process. */
  def local(nodes: Seq[SourceNode]): SourceLink = new SourceLink {
    private val bySrc = nodes.map(n => n.sourceId -> n).toMap
    val summaries: Seq[SourceSummary] = nodes.map(_.summary)
    def ask[P, A](requests: Seq[(Int, P)])(f: (SourceNode, P) => A): Map[Int, A] =
      requests.map { case (s, p) => s -> f(bySrc(s), p) }.toMap
  }
}

/** The data center (Fig. 3): holds DITS-G, routes queries to candidate
  * sources under a distribution strategy, aggregates their answers, and
  * accounts every byte crossing the center↔source boundary.
  *
  * The wire format for queries is lon/lat cell-centre points, so sources
  * with different grid resolutions can re-grid the query locally
  * (Section V-B).
  */
final class DataCenter(link: SourceLink) {

  /** A data center over sources in this process. */
  def this(sources: Seq[SourceNode]) = this(SourceLink.local(sources))

  val global: DitsGlobal = DitsGlobal.build(link.summaries)

  /** Query as lon/lat points (cell centres of the user's cell-based query
    * under the center's reference grid).
    */
  def overlapSearch(queryLonLat: Array[(Double, Double)], k: Int,
                    strategy: Distribution): (Seq[MultiHit], CommStats) = {
    require(k > 0, "k must be positive")
    val comm = new CommStats
    if (queryLonLat.isEmpty) return (Nil, comm)
    val requests = ship(queryLonLat, strategy, comm)(global.overlapCandidates, _.lonLatRect)
    val replies = link.ask(requests)((node, q) => node.localOverlap(q, k))
    val all = requests.flatMap { case (s, _) =>
      val hits = replies(s)
      comm.receiveHits(hits.length)
      hits.map(h => MultiHit(s, h.id, h.overlap))
    }
    (all.sorted.take(k), comm)
  }

  /** Multi-source CJSP: k greedy rounds; each round ships the merged set
    * (clipped per strategy) to candidate sources, receives each source's
    * best connected candidate, picks the global best, and merges its
    * cells into the covered set.
    */
  def coverageSearch(queryLonLat: Array[(Double, Double)], delta: Double, k: Int,
                     strategy: Distribution): (MultiCoverage, CommStats) = {
    require(k > 0, "k must be positive")
    CellSet.requireDelta(delta)
    val comm = new CommStats
    if (queryLonLat.isEmpty) return (MultiCoverage(Nil, 0), comm)
    // Covered set tracked under a reference grid (finest of the sources)
    // so coverage counting is well-defined across sources.
    val refGrid = link.summaries.map(_.grid).maxBy(_.theta)
    val covered = new CellSet.Cover(new CellSet.Tiles(refGrid.cellSetOf(queryLonLat)))
    var mergedPts = queryLonLat.distinct
    val picked = mutable.ArrayBuffer.empty[(Int, Int)]
    val excluded = mutable.HashMap.empty[Int, Set[Int]].withDefaultValue(Set.empty)

    var exhausted = false
    while (picked.length < k && !exhausted) {
      val requests = ship(mergedPts, strategy, comm)(global.coverageCandidates(_, delta),
        t => t.lonLatRect.expand(t.reach(delta)))
        .map { case (s, pts) => s -> ((pts, excluded(s))) }
      val replies = link.ask(requests) { case (node, (pts, ex)) => node.localCoverageRound(pts, ex, delta) }
      val found = requests.flatMap { case (s, _) =>
        replies(s) match {
          case Some((id, cells)) =>
            comm.receiveCells(cells.length); Some((s, id, cells, new CellSet.Tiles(refGrid.cellSetOf(cells))))
          case None              => comm.receiveHits(0); None
        }
      }
      if (found.isEmpty) exhausted = true
      else {
        // Re-rank by gain under the reference grid for fairness, ties to
        // the smaller (source, id).
        val (s, id, cells, ref) = found.maxBy { case (s, id, _, ref) =>
          (covered.gain(ref), -s, -id)
        }
        picked += ((s, id))
        excluded(s) += id
        covered.add(ref)
        mergedPts = (mergedPts ++ cells).distinct
      }
    }
    (MultiCoverage(picked.toSeq, covered.size), comm)
  }

  /** One round's requests: `pts` for every source under Broadcast, else
    * for the DITS-G candidates `route` finds for the MBR of `pts`, cut to
    * `clip` of each source under Clipped. A source left with no point gets
    * no message; every other payload is counted as sent.
    */
  private def ship(pts: Array[(Double, Double)], strategy: Distribution, comm: CommStats)
                  (route: MBR => Seq[SourceSummary], clip: SourceSummary => MBR)
      : Seq[(Int, Array[(Double, Double)])] = {
    val targets =
      if (strategy == Distribution.Broadcast) link.summaries
      else route(MBR.of(pts.map { case (x, y) => Point(x, y) }))
    val requests = targets.map { t =>
      val payload =
        if (strategy != Distribution.Clipped) pts
        else { val r = clip(t); pts.filter { case (x, y) => r.contains(Point(x, y)) } }
      t.sourceId -> payload
    }.filter(_._2.nonEmpty)
    requests.foreach { case (_, p) => comm.sendCells(p.length) }
    requests
  }
}
