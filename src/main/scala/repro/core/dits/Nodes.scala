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
  /** `cells` as tile runs, built once for the repeated gain and
    * connectivity probes of the greedy CJSP loops.
    */
  @transient lazy val tiles: CellSet.Tiles = new CellSet.Tiles(cells)
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
  /** Preorder position, numbered by [[DitsLocal.subtreeTotals]]. */
  private[dits] var pos: Int = 0
  def pivot: Point   = rect.pivot
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
  * stored flat. The keys are the distinct cells of all children in
  * ascending order, kept as 64-cell z-order tiles (the layout of
  * `CellSet.Cover`): `tiles` holds the distinct [[CellSet.tileOf tiles]]
  * in ascending order, `words(t)` the membership word of `tiles(t)` (never
  * 0), and `rank(t)` the number of keys in the tiles before it. The key at
  * bit `b` of tile `t` has position `p = rank(t) + bitCount(words(t) &
  * ((1L << b) - 1))`, and its posting list is `slots(offs(p) until offs(p
  * + 1))`, the positions in `children` of the children holding that cell,
  * ascending. A query looks each query tile up once, not each query cell.
  * Posting lists drive the Lemma 2/3 intersection bounds and exact
  * verification.
  *
  * The arrays are never written in place: `add`, `addAll` and `remove`
  * build new ones, so an index version stays consistent while it is read.
  */
final class Leaf(var rect: MBR) extends TreeNode {
  val children: mutable.ArrayBuffer[DatasetNode] = mutable.ArrayBuffer.empty
  private[dits] var tiles: Array[Long] = Array.emptyLongArray
  private[dits] var words: Array[Long] = Array.emptyLongArray
  private[dits] var rank: Array[Int]   = Array.emptyIntArray
  private[dits] var offs: Array[Int]   = Array(0)
  private[dits] var slots: Array[Int]  = Array.emptyIntArray

  /** Number of keys. */
  private[dits] def keyCount: Int = offs.length - 1

  /** Position of the key at bit `bit` (a word with that one bit set) of
    * tile `t`.
    */
  private[dits] def position(t: Int, bit: Long): Int = rank(t) + java.lang.Long.bitCount(words(t) & (bit - 1))

  /** The keys in ascending order, decoded from the tiles. */
  private[dits] def keys: Array[Long] = {
    val out = new Array[Long](keyCount)
    var o = 0; var t = 0
    while (t < tiles.length) {
      var w = words(t)
      while (w != 0) { out(o) = (tiles(t) << 6) | java.lang.Long.numberOfTrailingZeros(w); o += 1; w &= w - 1 }
      t += 1
    }
    out
  }

  /** Read-only `cell → child dataset ids` lookup; each probe is a binary
    * search over `tiles`.
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
    // One tile per run of same-tile keys.
    var nt = 0
    i = 0
    while (i < nk) { i += java.lang.Long.bitCount(CellSet.tileMask(ks, i)); nt += 1 }
    val ts = new Array[Long](nt); val ws = new Array[Long](nt); val rs = new Array[Int](nt)
    i = 0
    var t = 0
    while (i < nk) {
      ts(t) = CellSet.tileOf(ks(i)); ws(t) = CellSet.tileMask(ks, i); rs(t) = i
      i += java.lang.Long.bitCount(ws(t)); t += 1
    }
    tiles = ts; words = ws; rank = rs; offs = os; slots = ss
  }

  /** Appendix C insert into this leaf: one linear merge of `d`'s cells into
    * the keys, tile by tile, ORing `d`'s tile words into the leaf's; `d`
    * takes the last slot, so posting lists stay ascending.
    */
  def add(d: DatasetNode): Unit = {
    val slot = children.length
    children += d
    d.parent = this
    val cs = d.cells
    // Sized for no shared tile and no shared key, trimmed at the end.
    val ts = new Array[Long](tiles.length + cs.length)
    val ws = new Array[Long](ts.length)
    val rs = new Array[Int](ts.length)
    val os = new Array[Int](keyCount + cs.length + 1)
    val ss = new Array[Int](slots.length + cs.length)
    var i = 0; var j = 0; var k = 0; var t = 0; var o = 0; var n = 0
    while (i < tiles.length || j < cs.length) {
      // Tile ids are ≥ 0, so Long.MaxValue marks an exhausted side.
      val oldTile = if (i < tiles.length) tiles(i) else Long.MaxValue
      val newTile = if (j < cs.length) CellSet.tileOf(cs(j)) else Long.MaxValue
      val tile = math.min(oldTile, newTile)
      val old = if (oldTile == tile) words(i) else 0L
      val fresh = if (newTile == tile) CellSet.tileMask(cs, j) else 0L
      if (oldTile == tile) i += 1
      j += java.lang.Long.bitCount(fresh)
      val w = old | fresh
      ts(t) = tile; ws(t) = w; rs(t) = o; t += 1
      var rest = w
      while (rest != 0) {
        val b = rest & -rest
        if ((old & b) != 0) {
          val len = offs(k + 1) - offs(k)
          System.arraycopy(slots, offs(k), ss, n, len); n += len; k += 1
        }
        if ((fresh & b) != 0) { ss(n) = slot; n += 1 }
        o += 1; os(o) = n
        rest ^= b
      }
    }
    tiles = java.util.Arrays.copyOf(ts, t); words = java.util.Arrays.copyOf(ws, t)
    rank = java.util.Arrays.copyOf(rs, t); offs = java.util.Arrays.copyOf(os, o + 1); slots = ss
  }

  /** Appendix C delete from this leaf: drop `d`'s slot from every posting
    * list, shifting later slots down one; a key left without postings has
    * its bit cleared, and a tile left without keys is dropped.
    */
  def remove(d: DatasetNode): Unit = {
    val ix = children.indexWhere(_.id == d.id)
    require(ix >= 0, s"dataset ${d.id} not in leaf")
    children.remove(ix)
    val ts = new Array[Long](tiles.length)
    val ws = new Array[Long](tiles.length)
    val rs = new Array[Int](tiles.length)
    val os = new Array[Int](keyCount + 1)
    val ss = new Array[Int](slots.length - d.cells.length)
    var nt = 0; var nk = 0; var n = 0; var k = 0; var t = 0
    while (t < tiles.length) {
      val before = nk
      var w = words(t); var rest = w
      while (rest != 0) {
        val b = rest & -rest
        val start = n
        var j = offs(k)
        while (j < offs(k + 1)) {
          val s = slots(j)
          if (s != ix) { ss(n) = if (s > ix) s - 1 else s; n += 1 }
          j += 1
        }
        if (n > start) { nk += 1; os(nk) = n } else w &= ~b
        k += 1; rest ^= b
      }
      if (w != 0) { ts(nt) = tiles(t); ws(nt) = w; rs(nt) = before; nt += 1 }
      t += 1
    }
    tiles = java.util.Arrays.copyOf(ts, nt); words = java.util.Arrays.copyOf(ws, nt)
    rank = java.util.Arrays.copyOf(rs, nt); offs = java.util.Arrays.copyOf(os, nk + 1); slots = ss
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
      val t = java.util.Arrays.binarySearch(leaf.tiles, CellSet.tileOf(c))
      val b = 1L << (c & 63)
      if (t < 0 || (leaf.words(t) & b) == 0) None
      else Some(ids(leaf.position(t, b)))
    }
    private def ids(p: Int): IndexedSeq[Int] =
      (leaf.offs(p) until leaf.offs(p + 1)).map(j => leaf.children(leaf.slots(j)).id)
  }
}
