package repro.core.baselines

import repro.core.{CellSet, MBR}
import repro.core.dits.{CoverageResult, CoverageSearch, DatasetNode, DitsLocal}
import scala.collection.mutable

/** CJSP baselines of Section VII-D.
  *
  * SG: the standard greedy for MCP extended with the connectivity
  * constraint — every iteration scans *all* datasets, tests exact
  * connectivity against each member of the current result set, and picks
  * the connected dataset with the maximum marginal gain. O(|R|·n) exact
  * distance computations per round.
  *
  * SG+DITS: the same per-member greedy, but each round finds the
  * connected candidates through DITS-L's FindConnectSet (Lemma 4 bounds)
  * — one tree search per member of R, without CoverageSearch's merge
  * strategy.
  *
  * Both pick with [[CoverageSearch.bestGain]] against R in a [[CellSet.Cover]].
  */
object StandardGreedy {

  /** SG — index-free greedy. Each member of R carries its rect and a
    * NeighborIndex, so the per-round exhaustive connectivity scan stays
    * exact but avoids O(|S|·|S'|) pair loops: a dataset whose rect lies
    * farther than δ from a member's rect cannot connect to it (the rect
    * distance bounds the cell distance from below, as in FindConnectSet)
    * and is rejected before that member's cells are probed.
    */
  def sg(datasets: Seq[(Int, Array[Long])], query: Array[Long],
         delta: Double, k: Int): CoverageResult = {
    // Every round re-probes the full collection (this is exactly why SG is
    // slow), but each dataset's grid coordinates are decoded once, in its node.
    lazy val nodes = datasets.map { case (id, cells) => DatasetNode(id, cells) }
    greedy(query, delta, k) { (members, pickedIds, covered) =>
      // Directly connected to any member keeps R ∪ {Q} connected
      // (members are themselves connected to Q transitively).
      CoverageSearch.bestGain(nodes, covered)(d =>
        !pickedIds(d.id) && members.exists { case (rect, tester) =>
          d.rect.minDist2(rect) <= delta * delta && tester.connectedTo(d.tiles) })
    }
  }

  /** SG+DITS — greedy with index-accelerated connectivity, one
    * FindConnectSet per member of R per round (no merge strategy).
    */
  def sgDits(index: DitsLocal, query: Array[Long], delta: Double, k: Int): CoverageResult =
    greedy(query, delta, k) { (members, pickedIds, covered) =>
      val cand = mutable.ArrayBuffer.empty[DatasetNode]
      members.foreach { case (rect, tester) =>
        CoverageSearch.findConnected(index.root, rect, tester, delta, cand, pickedIds)
      }
      CoverageSearch.bestGain(cand.distinct, covered)(_ => true)
    }

  /** The greedy loop of both: `pick` gets the members of R as (rect,
    * tester), the picked ids and R, and returns the round's pick or None.
    */
  private def greedy(query: Array[Long], delta: Double, k: Int)
                    (pick: (Iterable[(MBR, CellSet.NeighborIndex)], Int => Boolean, CellSet.Cover) =>
                      Option[DatasetNode]): CoverageResult = {
    require(k > 0, "k must be positive")
    CellSet.requireDelta(delta)
    val q = CellSet.of(query)
    if (q.isEmpty) return CoverageResult(Nil, 0)
    val qt = new CellSet.Tiles(q)
    val covered = new CellSet.Cover(qt)
    val members = mutable.ArrayBuffer((CellSet.mbr(q), CellSet.NeighborIndex.packed(qt.xy, delta)))
    val picked = mutable.ArrayBuffer.empty[Int]
    val pickedIds = mutable.HashSet.empty[Int]
    var exhausted = false
    while (picked.length < k && !exhausted) {
      pick(members, pickedIds, covered) match {
        case Some(d) =>
          picked += d.id; pickedIds += d.id
          members += ((d.rect, CellSet.NeighborIndex.packed(d.tiles.xy, delta)))
          covered.add(d.tiles)
        case None => exhausted = true
      }
    }
    CoverageResult(picked.toSeq, covered.size)
  }
}
