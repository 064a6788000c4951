package repro.core.baselines

import repro.core.dits.OverlapHit
import scala.collection.mutable

/** JOSIE baseline [Zhu et al., SIGMOD 19], reduced to the mechanism the
  * paper's comparison exercises: a *sorted* inverted index whose posting
  * entries carry (dataset id, position of the cell within the dataset's
  * sorted cell list, dataset size), enabling exact top-k set-overlap
  * search with prefix-filter early termination.
  *
  * Search processes query cells in ascending posting-list-frequency order
  * (rarest first). After i of n cells, any dataset not yet touched can
  * reach overlap at most n − i, so once the top-k heap is full with
  * k-th best > n − i the scan stops early — JOSIE's distribution-dependent
  * behaviour that the paper contrasts with DITS.
  */
final class JosieIndex {
  /** Posting entry: (dataset id, position in the dataset's sorted cells,
    * dataset size). Lists are kept sorted by dataset id.
    */
  private val inv = mutable.HashMap.empty[Long, mutable.ArrayBuffer[(Int, Int, Int)]]
  private var entries = 0L

  def postingEntries: Long = entries

  def insert(id: Int, cells: Array[Long]): Unit = {
    val sorted = cells.clone(); java.util.Arrays.sort(sorted)
    var i = 0
    while (i < sorted.length) {
      val pl = inv.getOrElseUpdate(sorted(i), mutable.ArrayBuffer.empty)
      // Insert keeping the list sorted by dataset id (JOSIE's layout).
      val at = pl.lastIndexWhere(_._1 < id) + 1
      pl.insert(at, (id, i, sorted.length))
      entries += 1
      i += 1
    }
  }

  def remove(id: Int, cells: Array[Long]): Unit = {
    var i = 0
    while (i < cells.length) {
      inv.get(cells(i)).foreach { pl =>
        val j = pl.indexWhere(_._1 == id)
        if (j >= 0) { pl.remove(j); entries -= 1 }
        if (pl.isEmpty) inv.remove(cells(i))
      }
      i += 1
    }
  }

  def update(id: Int, oldCells: Array[Long], newCells: Array[Long]): Unit = {
    remove(id, oldCells); insert(id, newCells)
  }

  def overlapTopK(queryCells: Array[Long], k: Int): Seq[OverlapHit] = {
    if (queryCells.isEmpty) return Seq.empty
    // Rarest-first ordering concentrates discriminative cells up front.
    val ordered = queryCells.sortBy(c => inv.get(c).map(_.length).getOrElse(0))
    val counts = mutable.HashMap.empty[Int, Int]
    var processed = 0
    var done = false
    while (processed < ordered.length && !done) {
      inv.get(ordered(processed)).foreach { pl =>
        var j = 0
        while (j < pl.length) {
          counts.update(pl(j)._1, counts.getOrElse(pl(j)._1, 0) + 1); j += 1
        }
      }
      processed += 1
      // Early termination: unseen datasets can score at most the number of
      // unprocessed query cells; one that ties the k-th may have a smaller
      // id, so stop only when the k-th is strictly ahead.
      if (counts.size >= k) {
        val kth = counts.valuesIterator.toSeq.sorted(Ordering[Int].reverse)(k - 1)
        if (kth > ordered.length - processed) {
          // Seen candidates may still grow, so finish counting only them.
          val seen = counts.keySet.toSet
          while (processed < ordered.length) {
            inv.get(ordered(processed)).foreach { pl =>
              var j = 0
              while (j < pl.length) {
                if (seen.contains(pl(j)._1))
                  counts.update(pl(j)._1, counts.getOrElse(pl(j)._1, 0) + 1)
                j += 1
              }
            }
            processed += 1
          }
          done = true
        }
      }
    }
    counts.iterator.map { case (id, ov) => OverlapHit(id, ov) }
      .toSeq.sorted.take(k)
  }
}

object JosieIndex {
  def build(datasets: Iterable[(Int, Array[Long])]): JosieIndex = {
    val ix = new JosieIndex
    datasets.foreach { case (id, cells) => ix.insert(id, cells) }
    ix
  }
}
