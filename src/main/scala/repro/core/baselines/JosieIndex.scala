package repro.core.baselines

import repro.core.LongTable
import repro.core.dits.{OverlapHit, TopK}
import scala.collection.mutable

/** JOSIE baseline [Zhu et al., SIGMOD 19], reduced to the mechanism the
  * paper's comparison exercises: a *sorted* inverted index, each posting
  * list holding the ids of the datasets with that cell in ascending order,
  * and exact top-k set-overlap search with prefix-filter early termination.
  *
  * Search processes query cells in ascending posting-list-frequency order
  * (rarest first). After i of n cells, any dataset not yet touched can
  * reach overlap at most n − i, so once k datasets are counted and the
  * k-th best count exceeds n − i the scan stops early — JOSIE's
  * distribution-dependent behaviour that the paper contrasts with DITS.
  */
final class JosieIndex {
  private val inv = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Int]]
  private var entries = 0L

  def postingEntries: Long = entries

  def insert(id: Int, cells: Array[Long]): Unit = {
    var i = 0
    while (i < cells.length) {
      val pl = inv.getOrElseUpdate(cells(i), mutable.ArrayBuffer.empty)
      // Insert keeping the list sorted by dataset id (JOSIE's layout).
      pl.insert(pl.lastIndexWhere(_ < id) + 1, id)
      entries += 1
      i += 1
    }
  }

  def remove(id: Int, cells: Array[Long]): Unit = {
    var i = 0
    while (i < cells.length) {
      inv.get(cells(i)).foreach { pl =>
        val j = pl.indexOf(id)
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
    require(k > 0, "k must be positive")
    if (queryCells.isEmpty) return Seq.empty
    // Rarest-first ordering concentrates discriminative cells up front.
    val ordered = queryCells.sortBy(c => inv.get(c).map(_.length).getOrElse(0))
    val counts = new LongTable(16)
    // Counts one for each dataset in the posting list of ordered(i); with
    // `seenOnly`, only for the datasets already counted.
    def scan(i: Int, seenOnly: Boolean): Unit = inv.get(ordered(i)).foreach { pl =>
      var j = 0
      while (j < pl.length) {
        if (!seenOnly) counts.add(pl(j), 1)
        else { val s = counts.find(pl(j)); if (s >= 0) counts.setValue(s, counts.value(s) + 1) }
        j += 1
      }
    }
    var processed = 0
    while (processed < ordered.length) {
      scan(processed, seenOnly = false)
      processed += 1
      // Early termination: unseen datasets can score at most the number of
      // unprocessed query cells; one that ties the k-th may have a smaller
      // id, so stop only when the k-th is strictly ahead. Seen candidates
      // may still grow, so the rest is counted for them only.
      if (counts.size >= k && TopK.of(counts, k).kth > ordered.length - processed)
        while (processed < ordered.length) { scan(processed, seenOnly = true); processed += 1 }
    }
    TopK.of(counts, k).result
  }
}

object JosieIndex {
  def build(datasets: Iterable[(Int, Array[Long])]): JosieIndex = {
    val ix = new JosieIndex
    datasets.foreach { case (id, cells) => ix.insert(id, cells) }
    ix
  }
}
