package repro.core.baselines

import repro.core.LongTable
import repro.core.dits.{OverlapHit, TopK}
import scala.collection.mutable

/** STS3 baseline [Peng et al., SIGMOD 16]: a flat inverted index over cell
  * IDs. OJSP accumulates per-dataset counters over the query cells'
  * posting lists, then ranks *all* intersecting datasets — which is why,
  * as the paper observes, its runtime barely changes with k.
  */
final class Sts3Index {
  private val inv = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Int]]
  private var entries = 0L

  /** Total posting-list entries — Fig. 8 memory proxy. */
  def postingEntries: Long = entries

  def insert(id: Int, cells: Array[Long]): Unit = {
    var i = 0
    while (i < cells.length) {
      inv.getOrElseUpdate(cells(i), mutable.ArrayBuffer.empty) += id
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
    val counts = new LongTable(16)
    var i = 0
    while (i < queryCells.length) {
      inv.get(queryCells(i)).foreach { pl =>
        var j = 0
        while (j < pl.length) { counts.add(pl(j), 1); j += 1 }
      }
      i += 1
    }
    TopK.of(counts, k).result
  }
}

object Sts3Index {
  def build(datasets: Iterable[(Int, Array[Long])]): Sts3Index = {
    val ix = new Sts3Index
    datasets.foreach { case (id, cells) => ix.insert(id, cells) }
    ix
  }
}
