package repro.core.dits

import repro.core.{Grid, MBR}
import scala.collection.mutable

/** Root-node summary a data source sends to the data center after building
  * its DITS-L (Section V-B): the source id plus the root MBR converted to
  * lon/lat, so sources gridded at different resolutions remain comparable.
  */
final case class SourceSummary(sourceId: Int, lonLatRect: MBR, grid: Grid)
    extends Serializable {
  /** The larger side of one of this source's cells, in lon/lat units. */
  def cellSide: Double = math.max(grid.cellW, grid.cellH)

  /** Lon/lat distance from `lonLatRect` that covers every point in a
    * cell δ-connected to one of this source's cells.
    */
  def reach(delta: Double): Double = SourceSummary.reach(delta, cellSide)
}

object SourceSummary {
  /** Summarise a built local index under its grid. */
  def of(sourceId: Int, index: DitsLocal, grid: Grid): SourceSummary =
    SourceSummary(sourceId, grid.cellSpaceToLonLat(index.root.rect), grid)

  /** δ-reach for cells of side `cellSide`. δ cells would suffice: the
    * root rect spans whole cells, so a point whose cell is within δ of a
    * local cell lies within δ cells of the rect. The extra cell stays
    * because perfbench's traced `multisource-clip` replay hardcodes
    * `(delta + 1)` and checks its `CommStats` against `DataCenter`'s, and
    * because dropping it changes the Figs. 19–20 bytes; it goes with that
    * replay (ROADMAP item 1).
    */
  private[dits] def reach(delta: Double, cellSide: Double): Double = (delta + 1) * cellSide
}

/** DITS-G — the data center's global index (Section V-B): DITS-L's
  * Algorithm 1 tree over source summaries in lon/lat space, with plain
  * leaves of at most two summaries (no inverted index).
  */
final class DitsGlobal private (root: DitsGlobal.GNode) extends Serializable {
  import DitsGlobal._

  /** Candidate sources for an overlap query: sources whose root MBR
    * intersects the query's lon/lat MBR (Section VI-A strategy 1).
    */
  def overlapCandidates(queryRect: MBR): Seq[SourceSummary] =
    route((rect, _) => rect.intersects(queryRect))

  /** Candidate sources for a coverage query: sources whose root MBR lies
    * within their δ-reach of the query's lon/lat MBR (δ is in cell units
    * of each source's grid).
    */
  def coverageCandidates(queryRect: MBR, delta: Double): Seq[SourceSummary] =
    route((rect, cellSide) => rect.minDist(queryRect) <= SourceSummary.reach(delta, cellSide))

  /** Summaries whose rect and cell side pass `near`, descending only into
    * nodes whose rect passes it with the largest cell side below them.
    */
  private def route(near: (MBR, Double) => Boolean): Seq[SourceSummary] = {
    val out = mutable.ArrayBuffer.empty[SourceSummary]
    def go(n: GNode): Unit = if (near(n.rect, n.cellSide)) n match {
      case l: GLeaf     => l.ss.foreach(s => if (near(s.lonLatRect, s.cellSide)) out += s)
      case i: GInternal => go(i.left); go(i.right)
    }
    go(root)
    out.toSeq
  }
}

object DitsGlobal {
  /** Leaf capacity of DITS-G. */
  private val Capacity = 2

  /** A DITS-G node: its lon/lat rect and the largest cell side of the
    * sources below it.
    */
  private sealed abstract class GNode(val rect: MBR, val cellSide: Double) extends Serializable
  private final class GLeaf(rect: MBR, val ss: Array[SourceSummary])
      extends GNode(rect, ss.map(_.cellSide).max)
  private final class GInternal(rect: MBR, val left: GNode, val right: GNode)
      extends GNode(rect, math.max(left.cellSide, right.cellSide))

  /** Build the global index with DITS-L's median split (Algorithm 1). */
  def build(summaries: Seq[SourceSummary]): DitsGlobal = {
    require(summaries.nonEmpty, "no data sources registered")
    new DitsGlobal(DitsLocal.medianSplit[SourceSummary, GNode](summaries.toArray, _.lonLatRect, Capacity)(
      new GLeaf(_, _), new GInternal(_, _, _)))
  }
}
