package repro.core.baselines

import repro.core.LongTable

/** The flat inverted index over cell IDs that STS3 and JOSIE share, with
  * its one write path. A cell's posting list is an `Int` array: its length
  * in slot 0, the ids of the datasets holding the cell in ascending order
  * (JOSIE's layout; STS3's counting ignores it), then spare room. An id
  * above every id in its list is appended; an emptied list is kept.
  */
abstract class PostingIndex {
  private val listOf = new LongTable(16) // cell → list number, from 1
  private var lists = new Array[Array[Int]](16)
  private var entries = 0L

  /** Total posting-list entries — Fig. 8 memory proxy. */
  def postingEntries: Long = entries

  /** Posting list of `cell`, to read only; empty when the cell is absent. */
  protected final def postings(cell: Long): Array[Int] = {
    val s = listOf.find(cell)
    if (s < 0) PostingIndex.NoIds else lists(listOf.value(s).toInt)
  }

  /** Position of `id` among the ids of `a`, as `Arrays.binarySearch` gives it. */
  private def find(a: Array[Int], id: Int): Int = java.util.Arrays.binarySearch(a, 1, a(0) + 1, id)

  final def insert(id: Int, cells: Array[Long]): Unit = {
    var i = 0
    while (i < cells.length) {
      val s = listOf.insert(cells(i))
      if (listOf.value(s) == 0) { // a new cell opens list number `size`, with room for three ids
        if (listOf.size == lists.length) lists = java.util.Arrays.copyOf(lists, 2 * lists.length)
        lists(listOf.size) = new Array[Int](4); listOf.setValue(s, listOf.size)
      }
      val l = listOf.value(s).toInt
      var a = lists(l)
      if (a(0) + 1 == a.length) { a = java.util.Arrays.copyOf(a, 2 * a.length); lists(l) = a }
      val j = find(a, id); val p = if (j >= 0) j else -j - 1
      System.arraycopy(a, p, a, p + 1, a(0) + 1 - p)
      a(p) = id; a(0) += 1; entries += 1
      i += 1
    }
  }

  final def remove(id: Int, cells: Array[Long]): Unit = {
    var i = 0
    while (i < cells.length) {
      val a = postings(cells(i))
      val j = find(a, id)
      if (j >= 0) { System.arraycopy(a, j + 1, a, j, a(0) - j); a(0) -= 1; entries -= 1 }
      i += 1
    }
  }

  final def update(id: Int, oldCells: Array[Long], newCells: Array[Long]): Unit = {
    remove(id, oldCells); insert(id, newCells)
  }
}

object PostingIndex {
  private val NoIds = Array(0) // an absent cell's list; `remove` finds no id in it, so never writes it

  /** The build both engines share: every dataset inserted into `ix`. */
  private[baselines] def build[I <: PostingIndex](ix: I, datasets: Iterable[(Int, Array[Long])]): I = {
    datasets.foreach { case (id, cells) => ix.insert(id, cells) }
    ix
  }
}
