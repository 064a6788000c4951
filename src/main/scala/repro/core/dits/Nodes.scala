package repro.core.dits

import repro.core.{CellSet, MBR, Point}
import scala.collection.mutable

/** Dataset node (Def. 12): one spatial dataset summarised by its MBR in
  * cell-coordinate space, pivot, radius, and its cell-based set.
  *
  * Built only by [[DatasetNode.apply]], so `rect` is always the MBR of
  * `cells`; FindConnectSet's rect prefilter depends on it.
  */
final class DatasetNode private (
    val id: Int,
    val rect: MBR,
    val cells: Array[Long],
) extends Serializable {
  var parent: Leaf = _
  def pivot: Point  = rect.pivot
  def radius: Double = rect.radius
  /** Cell grid coordinates decoded once for repeated connectivity probes. */
  @transient lazy val packedXY: Array[Long] = CellSet.packXY(cells)
  override def toString: String = s"DatasetNode($id, ${cells.length} cells)"
}

object DatasetNode {
  /** Build a dataset node from a cell-based dataset. */
  def apply(id: Int, cells: Array[Long]): DatasetNode = {
    val cs = CellSet.of(cells)
    new DatasetNode(id, CellSet.mbr(cs), cs)
  }
}

/** A node of the DITS-L tree: either an internal node with two children
  * (Def. 13) or a leaf holding ≤ f dataset nodes plus an inverted index
  * (Def. 14). Bidirectional parent pointers support Appendix C updates.
  */
sealed trait TreeNode extends Serializable {
  var rect: MBR
  var parent: Internal = _
  def pivot: Point   = rect.pivot
  def radius: Double = rect.radius
  /** The leaves of this subtree, left to right. */
  def leaves: Iterator[Leaf] = this match {
    case l: Leaf     => Iterator.single(l)
    case i: Internal => i.left.leaves ++ i.right.leaves
  }
  /** All dataset nodes in this subtree. */
  def datasets: Iterator[DatasetNode] = leaves.flatMap(_.children)
}

final class Internal(var rect: MBR, var left: TreeNode, var right: TreeNode) extends TreeNode

/** Leaf node: child dataset nodes plus their inverted index (Def. 14),
  * stored flat: `keys` holds the distinct cells of all children in
  * ascending order, and the posting list of `keys(i)` is
  * `slots(offs(i) until offs(i + 1))`, the positions in `children` of the
  * children holding that cell, ascending. Posting lists drive the Lemma
  * 2/3 intersection bounds and exact verification.
  *
  * The three arrays are never written in place: `add`, `addAll` and
  * `remove` build new ones, so an index version stays consistent while it
  * is read.
  */
final class Leaf(var rect: MBR) extends TreeNode {
  val children: mutable.ArrayBuffer[DatasetNode] = mutable.ArrayBuffer.empty
  private[dits] var keys: Array[Long] = Array.emptyLongArray
  private[dits] var offs: Array[Int]  = Array(0)
  private[dits] var slots: Array[Int] = Array.emptyIntArray

  /** Read-only `cell → child dataset ids` lookup; each probe is a binary
    * search over `keys`.
    */
  def inv: Leaf.Postings = new Leaf.Postings(this)

  /** Append `ds` and rebuild the index once over all children (Alg. 1). */
  def addAll(ds: Iterable[DatasetNode]): Unit = {
    ds.foreach { d => children += d; d.parent = this }
    var total = 0
    children.foreach(total += _.cells.length)
    val all = new Array[Long](total)
    var n = 0
    children.foreach { d =>
      System.arraycopy(d.cells, 0, all, n, d.cells.length); n += d.cells.length
    }
    val ks = CellSet.sortedDistinct(all, total)
    val nk = ks.length
    // Count each key's postings, then fill them child by child, so each
    // posting list comes out in ascending slot order.
    val os = new Array[Int](nk + 1)
    children.foreach(d => forEachKey(ks, d.cells)(p => os(p + 1) += 1))
    var i = 0
    while (i < nk) { os(i + 1) += os(i); i += 1 }
    val next = java.util.Arrays.copyOf(os, nk)
    val ss = new Array[Int](total)
    var s = 0
    while (s < children.length) {
      val slot = s
      forEachKey(ks, children(s).cells) { p => ss(next(p)) = slot; next(p) += 1 }
      s += 1
    }
    keys = ks; offs = os; slots = ss
  }

  /** Appendix C insert into this leaf: one linear merge of `d`'s cells into
    * the keys; `d` takes the last slot, so posting lists stay ascending.
    */
  def add(d: DatasetNode): Unit = {
    val slot = children.length
    children += d
    d.parent = this
    val cs = d.cells
    val nk = keys.length + cs.length - CellSet.intersectionSize(keys, cs)
    val ks = new Array[Long](nk)
    val os = new Array[Int](nk + 1)
    val ss = new Array[Int](slots.length + cs.length)
    var i = 0; var j = 0; var o = 0; var n = 0
    while (o < nk) {
      val fromOld = i < keys.length && (j == cs.length || keys(i) <= cs(j))
      val fromNew = j < cs.length && (i == keys.length || cs(j) <= keys(i))
      ks(o) = if (fromOld) keys(i) else cs(j)
      if (fromOld) {
        val len = offs(i + 1) - offs(i)
        System.arraycopy(slots, offs(i), ss, n, len); n += len; i += 1
      }
      if (fromNew) { ss(n) = slot; n += 1; j += 1 }
      o += 1
      os(o) = n
    }
    keys = ks; offs = os; slots = ss
  }

  /** Appendix C delete from this leaf: drop `d`'s slot from every posting
    * list (and keys left without postings), shifting later slots down one.
    */
  def remove(d: DatasetNode): Unit = {
    val ix = children.indexWhere(_.id == d.id)
    require(ix >= 0, s"dataset ${d.id} not in leaf")
    children.remove(ix)
    val ks = new Array[Long](keys.length)
    val os = new Array[Int](keys.length + 1)
    val ss = new Array[Int](slots.length - d.cells.length)
    var nk = 0; var n = 0; var i = 0
    while (i < keys.length) {
      val start = n
      var j = offs(i)
      while (j < offs(i + 1)) {
        val s = slots(j)
        if (s != ix) { ss(n) = if (s > ix) s - 1 else s; n += 1 }
        j += 1
      }
      if (n > start) { ks(nk) = keys(i); nk += 1; os(nk) = n }
      i += 1
    }
    keys = java.util.Arrays.copyOf(ks, nk)
    offs = java.util.Arrays.copyOf(os, nk + 1)
    slots = ss
  }

  /** Calls `f` with the position in sorted `ks` of each cell of sorted
    * `cells`; every cell must be a key.
    */
  private def forEachKey(ks: Array[Long], cells: Array[Long])(f: Int => Unit): Unit = {
    var p = 0; var j = 0
    while (j < cells.length) {
      while (ks(p) != cells(j)) p += 1
      f(p)
      p += 1; j += 1
    }
  }
}

object Leaf {
  /** `leaf.inv`: a view over the leaf's current arrays, not a copy. */
  final class Postings private[dits] (leaf: Leaf) {
    /** Ids of the children holding cell `c`, in slot order. */
    def get(c: Long): Option[IndexedSeq[Int]] = {
      val p = java.util.Arrays.binarySearch(leaf.keys, c)
      if (p < 0) None else Some(ids(p))
    }
    private def ids(p: Int): IndexedSeq[Int] =
      (leaf.offs(p) until leaf.offs(p + 1)).map(j => leaf.children(leaf.slots(j)).id)
  }
}
