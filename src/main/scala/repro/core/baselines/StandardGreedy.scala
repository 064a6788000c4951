package repro.core.baselines

import repro.core.CellSet
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
  * Both pick with [[CoverageSearch.bestGain]]: gain ties keep the smaller id.
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
    require(k > 0, "k must be positive")
    CellSet.requireDelta(delta)
    var covered = CellSet.of(query)
    if (covered.isEmpty) return CoverageResult(Nil, 0)
    val members = mutable.ArrayBuffer(
      (CellSet.mbr(covered), new CellSet.NeighborIndex(covered, delta)))
    val picked = mutable.ArrayBuffer.empty[Int]
    val pickedIds = mutable.HashSet.empty[Int]
    // Every round re-probes the full collection (this is exactly why SG is
    // slow), but each dataset's grid coordinates are decoded once, in its node.
    val nodes = datasets.map { case (id, cells) => DatasetNode(id, cells) }

    var exhausted = false
    while (picked.length < k && !exhausted) {
      // Directly connected to any member keeps R ∪ {Q} connected
      // (members are themselves connected to Q transitively).
      CoverageSearch.bestGain(nodes, covered)(d =>
        !pickedIds(d.id) && members.exists { case (rect, tester) =>
          d.rect.minDist(rect) <= delta && tester.connectedToPacked(d.packedXY) }) match {
        case Some(d) =>
          picked += d.id; pickedIds += d.id
          members += ((d.rect, new CellSet.NeighborIndex(d.cells, delta)))
          covered = CellSet.union(covered, d.cells)
        case None => exhausted = true
      }
    }
    CoverageResult(picked.toSeq, covered.length)
  }

  /** SG+DITS — greedy with index-accelerated connectivity, one
    * FindConnectSet per member of R per round (no merge strategy).
    */
  def sgDits(index: DitsLocal, query: Array[Long], delta: Double, k: Int): CoverageResult = {
    require(k > 0, "k must be positive")
    CellSet.requireDelta(delta)
    var covered = CellSet.of(query)
    if (covered.isEmpty) return CoverageResult(Nil, 0)
    // Members tracked as (rect, tester) for the tree search per member.
    val members = mutable.ArrayBuffer(
      (CellSet.mbr(covered), new CellSet.NeighborIndex(covered, delta)))
    val picked = mutable.ArrayBuffer.empty[Int]
    val pickedIds = mutable.HashSet.empty[Int]

    var exhausted = false
    while (picked.length < k && !exhausted) {
      val cand = mutable.ArrayBuffer.empty[DatasetNode]
      members.foreach { case (rect, tester) =>
        CoverageSearch.findConnected(index.root, rect, tester, delta, cand, pickedIds)
      }
      CoverageSearch.bestGain(cand.distinct, covered)(_ => true) match {
        case Some(d) =>
          picked += d.id; pickedIds += d.id
          members += ((d.rect, new CellSet.NeighborIndex(d.cells, delta)))
          covered = CellSet.union(covered, d.cells)
        case None => exhausted = true
      }
    }
    CoverageResult(picked.toSeq, covered.length)
  }
}
