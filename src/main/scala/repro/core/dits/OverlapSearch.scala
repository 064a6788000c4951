package repro.core.dits

import repro.core.{CellSet, LongTable}
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

/** The one top-k ranking kernel of the OJSP engines: the best k (overlap,
  * id) pairs offered, in [[OverlapHit.ordering]] (higher overlap, then the
  * smaller id). A min-heap of packed longs whose root is the weakest kept
  * pair; it grows as pairs arrive, up to k. With k ≤ 0 it keeps nothing.
  * Each id is offered at most once.
  */
final class TopK(k: Int) {
  private var heap = new Array[Long](math.max(0, math.min(k, 16)))
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
    } else if (size > 0 && x > heap(0)) { // sift the new pair down from the root
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

object TopK {
  /** The best k of `counts` (dataset id → overlap), as the baselines count them. */
  def of(counts: LongTable, k: Int): TopK = {
    val top = new TopK(k)
    counts.foreach((id, overlap) => top.offer(overlap.toInt, id.toInt))
    top
  }
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
  * One kernel, [[probe]], looks query tiles up in a leaf's flat index
  * (`Leaf.tiles`/`words`/`rank`, then `offs`/`slots`). The query is
  * grouped once into runs of cells that share a 64-cell z-order tile
  * ([[CellSet.Tiles]]). For each run that meets the leaf's rect, the probe
  * gallops once to the run's tile from the previous position, and
  * records the key position of each query cell in `mask & word`. The
  * Lemma 2 bound is the number of hits; verification reads the posting
  * lists at the recorded positions and looks nothing up again.
  */
object OverlapSearch {

  /** Lemma 2: upper bound of `|S_Q ∩ S_D|` over all datasets in `leaf`.
    * `query` is sorted and distinct, as everywhere below.
    */
  def upperBound(leaf: Leaf, query: Array[Long]): Int = hitsOf(leaf, query).length

  /** Lemma 3: lower bound — query cells contained by *every* child of the
    * leaf, so every child dataset has at least this overlap.
    */
  def lowerBound(leaf: Leaf, query: Array[Long]): Int = {
    val offs = leaf.offs; val full = leaf.children.length
    hitsOf(leaf, query).count(p => offs(p + 1) - offs(p) == full)
  }

  /** Exact per-dataset overlap (id → count, counts > 0) for one leaf via
    * its posting lists.
    */
  def verifyLeaf(leaf: Leaf, query: Array[Long]): collection.Map[Int, Int] = {
    val hits = hitsOf(leaf, query)
    val counts = new Array[Int](leaf.children.length)
    countHits(leaf, hits, 0, hits.length, counts)
    val out = mutable.HashMap.empty[Int, Int]
    var s = 0
    while (s < counts.length) {
      if (counts(s) > 0) out(leaf.children(s).id) = counts(s)
      s += 1
    }
    out
  }

  /** The key positions in `leaf` of the query cells it holds, ascending. */
  private def hitsOf(leaf: Leaf, query: Array[Long]): Array[Int] = {
    val hits = new Array[Int](math.min(query.length, leaf.keyCount))
    java.util.Arrays.copyOf(hits, probe(leaf, new CellSet.Tiles(query), hits, 0))
  }

  /** Writes to `hits` from `at` the key position in `leaf` of each query
    * cell found there, ascending, and returns how many it wrote; `hits`
    * must have room for `min(query.length, leaf.keyCount)` more. Only the
    * cells inside the leaf's half-open rect `[minX, maxX) × [minY, maxY)`
    * are looked up: every key lies there, because the rect contains each
    * child's MBR. A run whose box lies inside the rect takes its whole
    * mask, one whose box misses it is skipped, and one that straddles an
    * edge tests its cells one by one. Each run left with a non-empty mask
    * costs one gallop in `tiles`; runs outside the leaf's first to last
    * tile are not visited.
    */
  private def probe(leaf: Leaf, q: CellSet.Tiles, hits: Array[Int], at: Int): Int = {
    val tiles = leaf.tiles
    if (tiles.length == 0) return 0
    val r = leaf.rect
    val lx = r.minX.toInt; val hx = r.maxX.toInt; val ly = r.minY.toInt; val hy = r.maxY.toInt
    val box = q.box; val xy = q.xy; val query = q.cells
    val last = tiles(tiles.length - 1)
    var n = at; var from = 0
    var run = java.util.Arrays.binarySearch(q.tile, 0, q.size, tiles(0))
    if (run < 0) run = -run - 1
    while (run < q.size && q.tile(run) <= last) {
      val x0 = box(4 * run); val x1 = box(4 * run + 1); val y0 = box(4 * run + 2); val y1 = box(4 * run + 3)
      val m =
        if (x1 < lx || x0 >= hx || y1 < ly || y0 >= hy) 0L
        else if (x0 >= lx && x1 < hx && y0 >= ly && y1 < hy) q.mask(run)
        else {
          var inside = 0L; var i = q.from(run)
          while (i < q.from(run + 1)) {
            val x = (xy(i) >> 32).toInt; val y = xy(i).toInt
            if (x >= lx && x < hx && y >= ly && y < hy) inside |= 1L << (query(i) & 63)
            i += 1
          }
          inside
        }
      if (m != 0) {
        val p = CellSet.gallop(tiles, from, q.tile(run))
        if (p >= 0) {
          var hit = m & leaf.words(p)
          while (hit != 0) {
            val low = hit & -hit
            hits(n) = leaf.position(p, low); n += 1
            hit ^= low
          }
          from = p + 1
        } else from = -p - 1
      }
      run += 1
    }
    n - at
  }

  /** Adds to `counts(s)` one for each hit in `hits(from until until)`
    * that child slot `s` holds.
    */
  private def countHits(leaf: Leaf, hits: Array[Int], from: Int, until: Int, counts: Array[Int]): Unit = {
    val offs = leaf.offs; val slots = leaf.slots
    var h = from
    while (h < until) {
      var j = offs(hits(h))
      while (j < offs(hits(h) + 1)) { counts(slots(j)) += 1; j += 1 }
      h += 1
    }
  }

  /** Initial buffer sizes of [[search]]: a paper-scale query has 211.6
    * candidate leaves and 3,071 Lemma 2 hits on average, so most queries
    * never grow them.
    */
  private final val Candidates = 256
  private final val Hits = 4096

  /** Top-k datasets by exact overlap with `query` (sorted cell IDs).
    * Datasets with overlap 0 are never returned (their MBRs are pruned).
    * Ties are broken by smaller dataset id for determinism.
    */
  def search(index: DitsLocal, queryCells: Array[Long], k: Int): Seq[OverlapHit] = {
    require(k > 0, "k must be positive")
    if (queryCells.isEmpty) return Seq.empty
    val qRect = CellSet.mbr(queryCells)
    val qt = new CellSet.Tiles(queryCells)

    // ---- Filter: collect candidate leaves with bounds (BranchAndBound). --
    // Candidate c is `leaves(c)`, its hits are `hits(starts(c) until
    // starts(c) + ub)`, and `order(c)` packs (Int.MaxValue − ub, c), so
    // sorting it gives descending ub, ties in descent order.
    val leaves = new mutable.ArrayBuffer[Leaf](Candidates)
    var starts = new Array[Int](Candidates)
    var order = new Array[Long](Candidates)
    var hits = new Array[Int](Hits)
    var nh = 0
    def descend(n: TreeNode): Unit = n match {
      case l: Leaf =>
        if (l.rect.intersects(qRect)) {
          val room = math.min(queryCells.length, l.keyCount)
          if (hits.length - nh < room) hits = java.util.Arrays.copyOf(hits, math.max(2 * hits.length, nh + room))
          val ub = probe(l, qt, hits, nh)
          if (ub > 0) {
            val c = leaves.length
            if (c == order.length) {
              starts = java.util.Arrays.copyOf(starts, 2 * c); order = java.util.Arrays.copyOf(order, 2 * c)
            }
            starts(c) = nh; order(c) = ((Int.MaxValue - ub).toLong << 32) | c
            leaves += l; nh += ub
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
        val cand = order(c).toInt
        val leaf = leaves(cand)
        val n = leaf.children.length
        if (counts.length < n) counts = new Array[Int](n)
        countHits(leaf, hits, starts(cand), starts(cand) + ub, counts)
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
}
