package repro.core.baselines

import repro.core.{CellSet, Grid, LongTable, MBR}
import repro.core.dits.{OverlapHit, TopK}
import scala.collection.mutable

/** QuadTree baseline [Gargantini 82] as used in Section VII: the index is
  * built over the *cell IDs of all datasets* (one entry per (cell,
  * dataset) pair), recursively splitting each quadrant that holds more
  * than `Capacity` (4) entries. OJSP finds all leaves intersecting the query
  * MBR and counts, per dataset, the entries whose cell is in the query set
  * — behaviour the paper describes as "similar to the inverted index".
  */
final class QuadTreeIndex(side: Int) {
  import QuadTreeIndex.Capacity

  private final class QNode(val rect: MBR) {
    var entries: mutable.ArrayBuffer[(Long, Int)] = mutable.ArrayBuffer.empty
    var children: Array[QNode] = null // NW, NE, SW, SE once split
    def isLeaf: Boolean = children == null
  }

  private val root = new QNode(MBR(0, 0, side, side))

  /** Number of quadtree nodes — Fig. 8 memory proxy. */
  def nodeCount: Int = {
    def go(n: QNode): Int = 1 + (if (n.isLeaf) 0 else n.children.map(go).sum)
    go(root)
  }

  def insertDataset(id: Int, cells: Array[Long]): Unit =
    cells.foreach(c => insertEntry(c, id))

  def removeDataset(id: Int, cells: Array[Long]): Unit =
    cells.foreach(c => removeEntry(c, id))

  /** Update = remove the old cells, insert the new (Fig. 22 workload). */
  def updateDataset(id: Int, oldCells: Array[Long], newCells: Array[Long]): Unit = {
    removeDataset(id, oldCells); insertDataset(id, newCells)
  }

  private def insertEntry(cell: Long, id: Int): Unit = {
    var n = root
    while (!n.isLeaf) n = n.children(quadrantOf(n, cell))
    n.entries += ((cell, id))
    if (n.entries.length > Capacity && n.rect.width(0) > 1) split(n)
  }

  private def removeEntry(cell: Long, id: Int): Unit = {
    var n = root
    while (!n.isLeaf) n = n.children(quadrantOf(n, cell))
    val i = n.entries.indexOf((cell, id))
    if (i >= 0) n.entries.remove(i)
  }

  /** Quadrant of `n` holding the centre of cell `c`. */
  private def quadrantOf(n: QNode, c: Long): Int = {
    val cx = (n.rect.minX + n.rect.maxX) / 2
    val cy = (n.rect.minY + n.rect.maxY) / 2
    (if (Grid.cellX(c) + 0.5 >= cx) 1 else 0) + (if (Grid.cellY(c) + 0.5 >= cy) 2 else 0)
  }

  private def split(n: QNode): Unit = {
    val cx = (n.rect.minX + n.rect.maxX) / 2
    val cy = (n.rect.minY + n.rect.maxY) / 2
    n.children = Array(
      new QNode(MBR(n.rect.minX, n.rect.minY, cx, cy)),
      new QNode(MBR(cx, n.rect.minY, n.rect.maxX, cy)),
      new QNode(MBR(n.rect.minX, cy, cx, n.rect.maxY)),
      new QNode(MBR(cx, cy, n.rect.maxX, n.rect.maxY)),
    )
    val old = n.entries
    n.entries = null
    old.foreach { case (c, id) => n.children(quadrantOf(n, c)).entries += ((c, id)) }
    // No recursive split: quadrants exceeding capacity split lazily on the
    // next insert, which bounds worst-case behaviour on duplicate cells.
  }

  /** OJSP: scan leaves intersecting the query MBR, count matching cells. */
  def overlapTopK(queryCells: Array[Long], k: Int): Seq[OverlapHit] = {
    require(k > 0, "k must be positive")
    if (queryCells.isEmpty) return Seq.empty
    val qRect = CellSet.mbr(queryCells)
    val query = new LongTable(queryCells.length)
    queryCells.foreach(query.insert)
    val counts = new LongTable(16)
    def go(n: QNode): Unit =
      if (n.rect.intersects(qRect)) {
        if (n.isLeaf)
          n.entries.foreach { case (c, id) => if (query.find(c) >= 0) counts.add(id, 1) }
        else n.children.foreach(go)
      }
    go(root)
    TopK.of(counts, k).result
  }
}

object QuadTreeIndex {
  /** Entries a quadrant holds before it splits. */
  private val Capacity = 4

  def build(datasets: Iterable[(Int, Array[Long])], side: Int): QuadTreeIndex = {
    val qt = new QuadTreeIndex(side)
    datasets.foreach { case (id, cells) => qt.insertDataset(id, cells) }
    qt
  }
}
