package repro.core.baselines

import repro.core.CellSet
import repro.core.dits.{CoverageResult, CoverageSearch, DitsLocal}
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
  */
object StandardGreedy {

  /** SG — index-free greedy. Deterministic: gain ties keep the smaller id.
    * Each member of R carries a NeighborIndex so the per-round exhaustive
    * connectivity scan stays exact but avoids O(|S|·|S'|) pair loops.
    */
  def sg(datasets: Seq[(Int, Array[Long])], query: Array[Long],
         delta: Double, k: Int): CoverageResult = {
    CellSet.requireDelta(delta)
    var covered = CellSet.of(query)
    val members = mutable.ArrayBuffer(new CellSet.NeighborIndex(covered, delta))
    val picked = mutable.ArrayBuffer.empty[Int]
    val pickedIds = mutable.HashSet.empty[Int]
    // Decode every dataset's grid coordinates once: every round re-probes
    // the full collection (this is exactly why SG is slow — but there is
    // no reason to also re-decode). Scanning in id order makes the first
    // of equal gains the smaller id, whatever the input order.
    val packed = datasets.sortBy(_._1).map { case (id, cells) => (id, cells, CellSet.packXY(cells)) }

    var it = 0
    var exhausted = false
    while (it < k && !exhausted) {
      var tau = -1
      var best: (Int, Array[Long]) = null
      packed.foreach { case (id, cells, xy) =>
        if (!pickedIds.contains(id) && cells.length > tau) {
          // Directly connected to any member keeps R ∪ {Q} connected
          // (members are themselves connected to Q transitively).
          val conn = members.exists(_.connectedToPacked(xy))
          if (conn) {
            val g = CellSet.marginalGain(cells, covered)
            if (g > tau) { tau = g; best = (id, cells) }
          }
        }
      }
      if (best == null) exhausted = true
      else {
        picked += best._1; pickedIds += best._1
        members += new CellSet.NeighborIndex(best._2, delta)
        covered = CellSet.union(covered, best._2)
      }
      it += 1
    }
    CoverageResult(picked.toSeq, covered.length)
  }

  /** SG+DITS — greedy with index-accelerated connectivity, one
    * FindConnectSet per member of R per round (no merge strategy).
    */
  def sgDits(index: DitsLocal, query: Array[Long], delta: Double, k: Int): CoverageResult = {
    CellSet.requireDelta(delta)
    var covered = CellSet.of(query)
    if (covered.isEmpty) return CoverageResult(Nil, 0)
    // Members tracked as (rect, tester) for the tree search per member.
    val members = mutable.ArrayBuffer(
      (CellSet.mbr(covered), new CellSet.NeighborIndex(covered, delta)))
    val picked = mutable.ArrayBuffer.empty[Int]
    val pickedIds = mutable.HashSet.empty[Int]

    var it = 0
    var exhausted = false
    while (it < k && !exhausted) {
      val cand = mutable.LinkedHashMap.empty[Int, Array[Long]]
      members.foreach { case (rect, tester) =>
        val out = mutable.ArrayBuffer.empty[repro.core.dits.DatasetNode]
        CoverageSearch.findConnected(index.root, rect, tester, delta, out)
        out.foreach(d => if (!pickedIds.contains(d.id)) cand.getOrElseUpdate(d.id, d.cells))
      }
      var tau = -1
      var best: (Int, Array[Long]) = null
      cand.toSeq.sortBy(_._1).foreach { case (id, cells) =>
        if (cells.length > tau) {
          val g = CellSet.marginalGain(cells, covered)
          if (g > tau) { tau = g; best = (id, cells) }
        }
      }
      if (best == null) exhausted = true
      else {
        picked += best._1; pickedIds += best._1
        members += ((CellSet.mbr(best._2), new CellSet.NeighborIndex(best._2, delta)))
        covered = CellSet.union(covered, best._2)
      }
      it += 1
    }
    CoverageResult(picked.toSeq, covered.length)
  }
}
