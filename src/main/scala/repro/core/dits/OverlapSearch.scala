package repro.core.dits

import repro.core.CellSet
import scala.collection.mutable

/** OJSP result entry: dataset id and its exact `|S_Q ∩ S_D|`. */
final case class OverlapHit(id: Int, overlap: Int)

object OverlapHit {
  /** The result order of every OJSP engine: higher overlap first, ties to
    * the smaller id.
    */
  implicit val ordering: Ordering[OverlapHit] = (a, b) =>
    if (a.overlap != b.overlap) Integer.compare(b.overlap, a.overlap) else Integer.compare(a.id, b.id)
}

/** Algorithm 2 — OverlapSearch: branch-and-bound over DITS-L with
  * leaf-level intersection bounds (Lemma 2), followed by exact
  * verification through the leaf inverted indexes.
  *
  * Filter step: internal nodes whose MBR misses the query MBR are pruned
  * outright (their intersection is 0). Each surviving leaf gets an upper
  * bound (number of query cells present in its inverted-index key set).
  * Leaves whose upper bound cannot beat the current k-th best are pruned
  * in batch.
  *
  * Verification step: leaves are processed in descending upper-bound order
  * so the top-k heap tightens as early as possible; per-dataset counts come
  * from one pass over the query cells' posting lists.
  *
  * Every kernel reads the leaf's flat index (`Leaf.keys`/`offs`/`slots`)
  * and walks only the slice of the sorted query between the leaf's smallest
  * and largest key, looking each cell up with a binary search that starts
  * after the previous hit.
  */
object OverlapSearch {

  /** Lemma 2: upper bound of `|S_Q ∩ S_D|` over all datasets in `leaf`.
    * `query` is sorted and distinct, as everywhere below.
    */
  def upperBound(leaf: Leaf, query: Array[Long]): Int = {
    val keys = leaf.keys
    if (keys.isEmpty) return 0
    var n = 0; var from = 0
    var i = sliceFrom(keys, query); val end = sliceUntil(keys, query)
    while (i < end) {
      val p = java.util.Arrays.binarySearch(keys, from, keys.length, query(i))
      if (p >= 0) { n += 1; from = p + 1 } else from = -p - 1
      i += 1
    }
    n
  }

  /** Lemma 3: lower bound — query cells contained by *every* child of the
    * leaf, so every child dataset has at least this overlap.
    */
  def lowerBound(leaf: Leaf, query: Array[Long]): Int = {
    val keys = leaf.keys; val offs = leaf.offs
    val full = leaf.children.length
    if (keys.isEmpty) return 0
    var n = 0; var from = 0
    var i = sliceFrom(keys, query); val end = sliceUntil(keys, query)
    while (i < end) {
      val p = java.util.Arrays.binarySearch(keys, from, keys.length, query(i))
      if (p >= 0) { if (offs(p + 1) - offs(p) == full) n += 1; from = p + 1 }
      else from = -p - 1
      i += 1
    }
    n
  }

  /** Exact per-dataset overlap (id → count, counts > 0) for one leaf via
    * its posting lists.
    */
  def verifyLeaf(leaf: Leaf, query: Array[Long]): collection.Map[Int, Int] = {
    val counts = new Array[Int](leaf.children.length)
    countOverlaps(leaf, query, counts)
    val out = mutable.HashMap.empty[Int, Int]
    var s = 0
    while (s < counts.length) {
      if (counts(s) > 0) out(leaf.children(s).id) = counts(s)
      s += 1
    }
    out
  }

  /** Adds to `counts(s)` the overlap of the query with child slot `s`. */
  private def countOverlaps(leaf: Leaf, query: Array[Long], counts: Array[Int]): Unit = {
    val keys = leaf.keys; val offs = leaf.offs; val slots = leaf.slots
    if (keys.isEmpty) return
    var from = 0
    var i = sliceFrom(keys, query); val end = sliceUntil(keys, query)
    while (i < end) {
      val p = java.util.Arrays.binarySearch(keys, from, keys.length, query(i))
      if (p >= 0) {
        var j = offs(p)
        while (j < offs(p + 1)) { counts(slots(j)) += 1; j += 1 }
        from = p + 1
      } else from = -p - 1
      i += 1
    }
  }

  /** First query position whose cell is ≥ `keys.head` (`keys` non-empty). */
  private def sliceFrom(keys: Array[Long], query: Array[Long]): Int = {
    val p = java.util.Arrays.binarySearch(query, keys(0))
    if (p >= 0) p else -p - 1
  }

  /** First query position whose cell is > `keys.last` (`keys` non-empty). */
  private def sliceUntil(keys: Array[Long], query: Array[Long]): Int = {
    val p = java.util.Arrays.binarySearch(query, keys(keys.length - 1))
    if (p >= 0) p + 1 else -p - 1
  }

  /** Top-k datasets by exact overlap with `query` (sorted cell IDs).
    * Datasets with overlap 0 are never returned (their MBRs are pruned).
    * Ties are broken by smaller dataset id for determinism.
    */
  def search(index: DitsLocal, queryCells: Array[Long], k: Int): Seq[OverlapHit] = {
    require(k > 0, "k must be positive")
    if (queryCells.isEmpty) return Seq.empty
    val qRect = CellSet.mbr(queryCells)

    // ---- Filter: collect candidate leaves with bounds (BranchAndBound). --
    // Candidate c is `leaves(c)`; `order(c)` packs (Int.MaxValue − ub, c),
    // so sorting it gives descending ub, ties in descent order.
    val leaves = mutable.ArrayBuffer.empty[Leaf]
    var order = new Array[Long](16)
    def descend(n: TreeNode): Unit = n match {
      case l: Leaf =>
        if (l.rect.intersects(qRect)) {
          val ub = upperBound(l, queryCells)
          if (ub > 0) {
            if (leaves.length == order.length) order = java.util.Arrays.copyOf(order, 2 * order.length)
            order(leaves.length) = ((Int.MaxValue - ub).toLong << 32) | leaves.length
            leaves += l
          }
        }
      case i: Internal =>
        if (i.rect.intersects(qRect)) { descend(i.left); descend(i.right) }
    }
    descend(index.root)
    java.util.Arrays.sort(order, 0, leaves.length)

    // ---- Verification in descending-ub order with a top-k min-heap. -----
    val heap = new TopK(k)
    var counts = new Array[Int](index.capacity)
    var c = 0
    while (c < leaves.length) {
      val ub = Int.MaxValue - (order(c) >>> 32).toInt
      if (!(heap.full && ub < heap.kth)) { // batch prune (Alg. 2 line 19)
        val leaf = leaves(order(c).toInt)
        val n = leaf.children.length
        if (counts.length < n) counts = new Array[Int](n)
        countOverlaps(leaf, queryCells, counts)
        var s = 0
        while (s < n) {
          if (counts(s) > 0) { heap.offer(counts(s), leaf.children(s).id); counts(s) = 0 }
          s += 1
        }
      }
      c += 1
    }
    heap.result
  }

  /** The best k (overlap, id) pairs offered, best first: higher overlap,
    * then the smaller id. A min-heap of packed longs whose root is the
    * weakest kept pair; it grows as pairs arrive, up to k.
    */
  private final class TopK(k: Int) {
    private var heap = new Array[Long](math.min(k, 16))
    private var size = 0

    def full: Boolean = size == k
    /** The k-th best overlap once [[full]]. */
    def kth: Int = (heap(0) >>> 32).toInt

    /** Orders by overlap, then by descending id: a pair beats another
      * exactly when its key is larger.
      */
    private def key(overlap: Int, id: Int): Long =
      (overlap.toLong << 32) | ((id ^ 0x7fffffff).toLong & 0xffffffffL)

    def offer(overlap: Int, id: Int): Unit = {
      val x = key(overlap, id)
      if (size < k) {
        if (size == heap.length) heap = java.util.Arrays.copyOf(heap, math.min(k, 2 * size))
        var i = size; size += 1
        while (i > 0 && heap((i - 1) / 2) > x) { heap(i) = heap((i - 1) / 2); i = (i - 1) / 2 }
        heap(i) = x
      } else if (x > heap(0)) { // sift the new pair down from the root
        var i = 0; var done = false
        while (!done) {
          var m = 2 * i + 1
          if (m + 1 < size && heap(m + 1) < heap(m)) m += 1
          if (m < size && heap(m) < x) { heap(i) = heap(m); i = m } else done = true
        }
        heap(i) = x
      }
    }

    def result: Seq[OverlapHit] = {
      val keys = java.util.Arrays.copyOf(heap, size)
      java.util.Arrays.sort(keys)
      val out = new Array[OverlapHit](size)
      var i = 0
      while (i < size) {
        val x = keys(size - 1 - i)
        out(i) = OverlapHit(x.toInt ^ 0x7fffffff, (x >>> 32).toInt)
        i += 1
      }
      scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
    }
  }
}
