package repro.perfbench

import repro.core.CellSet
import repro.core.dits._
import scala.collection.mutable

/** Algorithms 2 and 3 replayed from the public pieces of
  * `OverlapSearch` and `CoverageSearch`, with a span around each phase and
  * counters for the work done. Each replay must return exactly what the
  * real call returns; the harness checks that on every traced read.
  */
object Replay {

  /** Algorithm 2 (`OverlapSearch.search`). */
  def overlap(index: DitsLocal, q: Array[Long], k: Int, t: Tracer): Seq[OverlapHit] = {
    if (q.isEmpty) return Seq.empty
    val qRect = CellSet.mbr(q)
    val cands = mutable.ArrayBuffer.empty[(Leaf, Int, Int)]
    t.span("overlap.descend") {
      def descend(n: TreeNode): Unit = {
        t.count("overlap.nodes_visited")
        n match {
          case l: Leaf =>
            if (l.rect.intersects(qRect)) {
              val ub = t.timed("overlap.upper_bound")(OverlapSearch.upperBound(l, q))
              if (ub > 0) {
                val lb = t.timed("overlap.lower_bound")(OverlapSearch.lowerBound(l, q))
                cands += ((l, lb, ub))
              }
            }
          case i: Internal =>
            if (i.rect.intersects(qRect)) { descend(i.left); descend(i.right) }
        }
      }
      descend(index.root)
    }
    t.count("overlap.leaves_candidate", cands.length)
    // The verify span holds only what `OverlapSearch.search` does there:
    // verifyLeaf and the heap updates. The counters are read afterwards.
    val verified = mutable.ArrayBuffer.empty[collection.Map[Int, Int]]
    val hits = t.span("overlap.verify") {
      implicit val ord: Ordering[OverlapHit] =
        Ordering.by[OverlapHit, (Int, Int)](h => (-h.overlap, h.id))
      val heap = mutable.PriorityQueue.empty[OverlapHit]
      def kth: Int = if (heap.size < k) 0 else heap.head.overlap
      for ((leaf, _, ub) <- cands.sortBy(-_._3)) {
        if (!(heap.size >= k && ub < kth)) {
          val counts = OverlapSearch.verifyLeaf(leaf, q)
          verified += counts
          counts.foreach { case (id, ov) =>
            if (heap.size < k) heap.enqueue(OverlapHit(id, ov))
            else if (ov > heap.head.overlap ||
                     (ov == heap.head.overlap && id < heap.head.id)) {
              heap.dequeue(); heap.enqueue(OverlapHit(id, ov))
            }
          }
        }
      }
      heap.dequeueAll.reverse.toSeq
    }
    // A dataset sits in one leaf, so a verified leaf yields when its
    // counts hold the id of a hit.
    t.count("overlap.leaves_verified", verified.length)
    t.count("overlap.posting_entries_scanned", verified.iterator.map(_.valuesIterator.sum).sum.toDouble)
    t.count("overlap.leaves_yielding", verified.count(c => hits.exists(h => c.contains(h.id))))
    hits
  }

  /** Algorithm 3 (`CoverageSearch.search`). */
  def coverage(index: DitsLocal, q: Array[Long], delta: Double, k: Int, t: Tracer): CoverageResult = {
    var covered = CellSet.of(q)
    var mergedRect = CellSet.mbr(covered)
    val picked = mutable.ArrayBuffer.empty[Int]
    val pickedIds = mutable.HashSet.empty[Int]
    var it = 0
    var exhausted = false
    while (it < k && !exhausted) {
      val cand = mutable.ArrayBuffer.empty[DatasetNode]
      val tester = t.span("coverage.neighbor_index")(new CellSet.NeighborIndex(covered, delta))
      t.span("coverage.find_connect")(CoverageSearch.findConnected(index.root, mergedRect, tester, delta, cand))
      val best = t.span("coverage.gain")(bestGain(cand, pickedIds, covered, t))
      t.count("coverage.rounds"); t.count("coverage.candidates", cand.length)
      if (best == null) exhausted = true
      else {
        picked += best.id
        pickedIds += best.id
        t.span("coverage.union") {
          covered = CellSet.union(covered, best.cells)
          mergedRect = mergedRect.union(best.rect)
        }
      }
      it += 1
    }
    CoverageResult(picked.toSeq, covered.length)
  }

  /** The unpicked candidate of maximum marginal gain, ties to the smaller
    * id, skipping datasets too small to beat the best so far.
    */
  def bestGain(cand: Iterable[DatasetNode], excluded: Int => Boolean,
               covered: Array[Long], t: Tracer): DatasetNode = {
    var tau = -1
    var best: DatasetNode = null
    cand.toSeq.sortBy(_.id).foreach { d =>
      if (!excluded(d.id) && d.cells.length > tau) {
        t.count("coverage.gain_evals")
        val g = CellSet.marginalGain(d.cells, covered)
        if (g > tau) { tau = g; best = d }
      }
    }
    best
  }
}
