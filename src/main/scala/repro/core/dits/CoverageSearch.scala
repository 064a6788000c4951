package repro.core.dits

import repro.core.{CellSet, LongTable, MBR, Point}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** CJSP result: chosen dataset ids (in pick order) and the total coverage
  * `|S_Q ∪ ⋃ S_D|` achieved.
  */
final case class CoverageResult(picked: Seq[Int], coverage: Int)

/** Algorithm 3 — CoverageSearch: greedy with *spatial merge*, evaluated
  * incrementally.
  *
  * Each pick must be directly connected to the merged set `N_M` (the query
  * plus everything picked so far). FindConnectSet searches the tree with
  * the Lemma 4 distance bounds:
  *
  *   lb = max(‖p_N, p_M‖ − r_N − r_M, 0)   ub = ‖p_N, p_M‖ + r_N + r_M
  *
  * Subtrees with `ub ≤ δ` are connected wholesale; subtrees whose rect
  * lies farther than δ from the merged rect are pruned, which covers
  * `lb > δ` (each ball contains its rect, so lb ≤ the rect distance);
  * leaves in between verify the exact cell-set distance of each dataset
  * whose own rect passes the same rect test.
  *
  * Since dist(S, A ∪ B) = min(dist(S, A), dist(S, B)), the datasets
  * connected to the merged set are those connected to the query plus those
  * connected to some pick. So the candidate pool (the *frontier*) starts
  * with one FindConnectSet from the query and grows by one FindConnectSet
  * from each new pick's own small MBR, skipping datasets already in it.
  *
  * The pick is the pooled dataset of maximum marginal gain (Eq. 3), ties to
  * the smaller id, chosen lazily (CELF): the pool sits in a max-heap on
  * (gain desc, id asc) whose gains may be upper bounds. A dataset enters
  * the heap with its size `|S_D|`, marked as older than every round, so
  * no gain is computed when it is pooled. The gain `|S_D \ R|` never
  * exceeds `|S_D|` and never rises as R grows, so every key in the heap
  * bounds its entry's true gain from above: a stale top is re-evaluated
  * and pushed back, and a top whose gain is from the current round beats
  * every other entry, ties included. (Any other entry has a key below the
  * top's, so a smaller true gain, or an equal key and a larger id, so a
  * true gain that is at most equal and loses the tie.) The picks are
  * thus exactly those of the per-round greedy (SG), the same argument
  * that lets SG skip a dataset whose size is below the best gain so far.
  * R is a [[CellSet.Cover]], as in SG: a gain costs one probe per 8×8
  * tile of `S_D`, and a pick sets bits in place instead of copying R.
  *
  * Because every pick is directly connected to the *merged* set, the
  * result is directly-or-indirectly connected to the query (Defs. 7–9).
  */
object CoverageSearch {

  /** Lemma 4 bounds on `dist(S_M, S_D)` from two node summaries, each a
    * pivot (x, y) and a radius, read from the nodes' rects as plain
    * doubles so that FindConnectSet allocates nothing per node.
    */
  def lowerBound(ax: Double, ay: Double, aR: Double, bx: Double, by: Double, bR: Double): Double =
    math.max(Point.dist(ax, ay, bx, by) - aR - bR, 0.0)
  def upperBound(ax: Double, ay: Double, aR: Double, bx: Double, by: Double, bR: Double): Double =
    Point.dist(ax, ay, bx, by) + aR + bR

  /** FindConnectSet: all dataset nodes within cell-distance δ of the
    * merged set; `merged` (the merged cells' δ-connectivity tester) is
    * only consulted for the exact verification at leaves. Datasets whose
    * id is `known` are skipped before the exact test and left out of `out`.
    *
    * A node whose Lemma 4 upper bound is ≤ δ is connected wholesale. The
    * distance between two rects is a lower bound on the cell distance
    * (every cell lies inside its node's rect and `mergedRect` holds every
    * merged cell), so a node or dataset whose rect lies farther than δ
    * from `mergedRect` (squared gap > δ²) is pruned before the exact leaf
    * test; nothing connected is lost. Lemma 4's lower bound prunes
    * nothing more: each ball contains its rect, so lb ≤ the rect distance.
    */
  def findConnected(root: TreeNode, mergedRect: MBR, merged: CellSet.NeighborIndex,
                    delta: Double, out: mutable.ArrayBuffer[DatasetNode],
                    known: Int => Boolean = _ => false): Unit = {
    val mx = mergedRect.pivotX; val my = mergedRect.pivotY; val mr = mergedRect.radius
    val d2 = delta * delta
    def near(r: MBR): Boolean = r.minDist2(mergedRect) <= d2
    // ub ≤ δ implies the rect test, so the cheaper rect test comes first.
    def go(n: TreeNode): Unit = {
      val r = n.rect
      if (near(r)) {
        if (upperBound(r.pivotX, r.pivotY, r.radius, mx, my, mr) <= delta) // whole subtree connected
          n.datasets.foreach(d => if (!known(d.id)) out += d)
        else n match {
          case l: Leaf =>
            var c = 0
            while (c < l.children.length) {
              val d = l.children(c)
              if (near(d.rect) && !known(d.id) && merged.connectedTo(d.tiles)) out += d
              c += 1
            }
          case i: Internal => go(i.left); go(i.right)
        }
      }
    }
    go(root)
  }

  /** One greedy step: the admitted candidate of maximum marginal gain
    * `|S_D \ R|` (R = `covered`), ties to the smaller id whatever the order
    * of `cands`. A dataset with fewer cells than the best gain so far (or as
    * many and a larger id) cannot win, so it is skipped before `admit` and
    * its gain are evaluated. SG, SG+DITS and a source's CJSP round share it.
    */
  def bestGain(cands: Iterable[DatasetNode], covered: CellSet.Cover)
              (admit: DatasetNode => Boolean): Option[DatasetNode] = {
    var best: DatasetNode = null
    var tau = -1
    def beats(g: Int, id: Int): Boolean = g > tau || (g == tau && id < best.id)
    cands.foreach { d =>
      if (beats(d.cells.length, d.id) && admit(d)) {
        val g = covered.gain(d.tiles)
        if (beats(g, d.id)) { tau = g; best = d }
      }
    }
    Option(best)
  }

  /** A pooled candidate and its marginal gain as of round `round`; a
    * round of −1 marks the unevaluated seed `|S_D|`.
    */
  private final class Entry(val d: DatasetNode, var gain: Int, var round: Int)

  /** Max-heap order: larger gain first, then the smaller id. */
  private val byGainThenId: Ordering[Entry] = (a, b) =>
    if (a.gain != b.gain) Integer.compare(a.gain, b.gain) else Integer.compare(b.d.id, a.d.id)

  /** Greedy coverage search (Algorithm 3). Stops early when no unpicked
    * connected dataset remains; an empty query covers nothing.
    */
  def search(index: DitsLocal, queryCells: Array[Long], delta: Double, k: Int): CoverageResult = {
    require(k > 0, "k must be positive")
    CellSet.requireDelta(delta)
    val query = CellSet.of(queryCells)
    if (query.isEmpty) return CoverageResult(Nil, 0)
    val q = new CellSet.Tiles(query)
    val covered = new CellSet.Cover(q)
    val picked = new mutable.ArrayBuilder.ofInt
    val pooled = new LongTable(8) // ids of the datasets ever pooled
    val heap = mutable.PriorityQueue.empty[Entry](byGainThenId)
    // Pool every dataset directly connected to `cells` and not pooled
    // yet, keyed on its size until it first reaches the top.
    def grow(rect: MBR, cells: CellSet.Tiles): Unit = {
      val found = mutable.ArrayBuffer.empty[DatasetNode]
      findConnected(index.root, rect, CellSet.NeighborIndex.packed(cells.xy, delta), delta, found,
                    id => pooled.find(id) >= 0)
      found.foreach { d =>
        pooled.insert(d.id)
        heap.enqueue(new Entry(d, d.cells.length, -1))
      }
    }

    grow(CellSet.mbr(query), q)
    while (picked.length < k && heap.nonEmpty) {
      val e = heap.dequeue()
      if (e.round < picked.length) { // stale: re-evaluate against R
        e.gain = covered.gain(e.d.tiles); e.round = picked.length
        heap.enqueue(e)
      } else {
        picked.addOne(e.d.id)
        covered.add(e.d.tiles)
        if (picked.length < k) grow(e.d.rect, e.d.tiles)
      }
    }
    CoverageResult(ArraySeq.unsafeWrapArray(picked.result()), covered.size)
  }
}
