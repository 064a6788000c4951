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
  * in between, a dataset whose own rect passes the same rect test needs
  * the exact cell-set distance. Since dist(S, A ∪ B) = min(dist(S, A),
  * dist(S, B)), one walk from the query's rect, then one from each new
  * pick's own small rect, finds every candidate (the *frontier*).
  *
  * The pick is the connected dataset of maximum marginal gain (Eq. 3),
  * ties to the smaller id, chosen lazily (CELF): each dataset a walk finds
  * gets one entry in a max-heap on (gain desc, id asc), keyed first on
  * `|S_D|`, so finding it computes no gain and no exact δ-test. Unless
  * wholesale it is *pending*: only at the top is it tested, newest first,
  * against the NeighborIndex (built on first use) of each source (query or
  * pick) not yet tested whose rect is near its own. If one connects, it is
  * pooled and goes back with its seed key; else it is dropped until a later
  * walk offers it again. An entry in the heap or picked is *live*; a walk
  * needs nothing from it, so it skips every subtree whose datasets are all
  * live (a count per node, kept along the parent pointers). A `cjsp-k50` pass
  * runs 2,485 δ-tests (not 17,480) and 19,845 walk reports (not 156,166).
  *
  * The gain `|S_D \ R|` never exceeds `|S_D|` and never rises as R grows,
  * so every key bounds its entry's true gain from above; and each dataset
  * connected to the merged set has an entry, pooled or pending with a near
  * untested source it is connected to. So a stale top is re-evaluated and
  * pushed back, and a top whose gain is from the current round beats every
  * other entry, ties included. (Any other entry has a key below the top's,
  * so a smaller true gain, or an equal key and a larger id, so a true gain
  * that is at most equal and loses the tie.) The picks are thus exactly
  * SG's. R is a [[CellSet.Cover]], as in SG: a gain costs one probe per
  * 8×8 tile of `S_D`, and a pick sets bits in place instead of copying R.
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

  /** FindConnectSet's one tree walk: reports `(d, true)` for each dataset
    * of a subtree that Lemma 4 connects wholesale (ub ≤ δ) and `(d, false)`
    * for each other dataset whose rect lies within δ of `mergedRect`
    * (squared gap ≤ δ²). The rect distance bounds the cell distance from
    * below (`mergedRect` holds every merged cell), so none left out connects
    * but those of the subtrees it does not enter because `skip` holds.
    */
  private[dits] def walkNear(root: TreeNode, mergedRect: MBR, delta: Double, skip: TreeNode => Boolean = _ => false)
                            (f: (DatasetNode, Boolean) => Unit): Unit = {
    val mx = mergedRect.pivotX; val my = mergedRect.pivotY; val mr = mergedRect.radius
    val d2 = delta * delta
    def near(r: MBR): Boolean = r.minDist2(mergedRect) <= d2
    // ub ≤ δ implies the rect test, so the cheaper rect test comes first.
    def go(n: TreeNode): Unit = {
      val r = n.rect
      if (!skip(n) && near(r)) {
        if (upperBound(r.pivotX, r.pivotY, r.radius, mx, my, mr) <= delta) // whole subtree connected
          n.datasets.foreach(f(_, true))
        else n match {
          case l: Leaf     => l.children.foreach(d => if (near(d.rect)) f(d, false))
          case i: Internal => go(i.left); go(i.right)
        }
      }
    }
    go(root)
  }

  /** FindConnectSet: appends to `out` every dataset within cell-distance δ
    * of the merged set whose id is not `known`: those [[walkNear]] reports
    * wholesale or that `merged` (the merged cells' δ-tester) connects.
    */
  def findConnected(root: TreeNode, mergedRect: MBR, merged: CellSet.NeighborIndex,
                    delta: Double, out: mutable.ArrayBuffer[DatasetNode],
                    known: Int => Boolean = _ => false): Unit =
    walkNear(root, mergedRect, delta) { (d, whole) =>
      if (!known(d.id) && (whole || merged.connectedTo(d.tiles))) out += d
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

  /** A candidate and its gain as of round `round` (−1: the seed `|S_D|`);
    * until `pooled`, pending on the sources from `checked` on.
    */
  private final class Entry(val d: DatasetNode, var checked: Int) {
    var gain: Int = d.cells.length; var round: Int = -1
    var pooled = false; var live = false
  }

  /** The query or a pick, with its δ-connectivity tester built on first use. */
  private final class Source(val rect: MBR, cells: CellSet.Tiles, delta: Double, stats: SearchStats) {
    lazy val index: CellSet.NeighborIndex = { stats.indexBuilds += 1; CellSet.NeighborIndex.packed(cells.xy, delta) }
  }

  /** Max-heap order: larger gain first, then the smaller id. */
  private val byGainThenId: Ordering[Entry] = (a, b) =>
    if (a.gain != b.gain) Integer.compare(a.gain, b.gain) else Integer.compare(b.d.id, a.d.id)

  /** Greedy coverage search (Algorithm 3). Stops early when no unpicked
    * connected dataset remains; an empty query covers nothing.
    */
  def search(index: DitsLocal, queryCells: Array[Long], delta: Double, k: Int,
             stats: SearchStats = new SearchStats): CoverageResult = {
    require(k > 0, "k must be positive")
    CellSet.requireDelta(delta)
    val query = CellSet.of(queryCells)
    if (query.isEmpty) return CoverageResult(Nil, 0)
    val q = new CellSet.Tiles(query)
    val covered = new CellSet.Cover(q)
    val picked = new mutable.ArrayBuilder.ofInt
    val entries = mutable.ArrayBuffer.empty[Entry] // one per dataset ever offered
    val slots = new LongTable(8) // dataset id → position of its entry
    val heap = mutable.PriorityQueue.empty[Entry](byGainThenId)
    val sources = mutable.ArrayBuffer.empty[Source] // the query, then each pick
    // By node `pos`: the datasets below it that hold a live entry, and all of them.
    val totals = index.subtreeTotals
    val live = new Array[Int](totals.length)
    def setLive(e: Entry, on: Boolean): Unit = {
      e.live = on
      var n: TreeNode = e.d.parent
      while (n != null) { live(n.pos) += (if (on) 1 else -1); n = n.parent }
    }
    def full(n: TreeNode): Boolean =
      { stats.nodesVisited += 1; live(n.pos) == totals(n.pos) } && { stats.skippedLive += 1; true }
    // Offer each dataset near `rect` that holds no live entry (pooled if
    // wholesale, else pending), skipping subtrees that hold no other.
    def grow(rect: MBR, cells: CellSet.Tiles): Unit = {
      stats.rounds += 1
      sources += new Source(rect, cells, delta, stats)
      walkNear(index.root, rect, delta, full) { (d, whole) =>
        stats.reported += 1
        var s = slots.find(d.id)
        if (s < 0) { s = slots.insert(d.id); slots.setValue(s, entries.length); entries += new Entry(d, sources.length - 1) }
        val e = entries(slots.value(s).toInt)
        if (!e.live) { setLive(e, true); e.pooled = whole; heap.enqueue(e) }
      }
    }

    grow(CellSet.mbr(query), q)
    while (picked.length < k && heap.nonEmpty) {
      val e = heap.dequeue(); stats.heapPops += 1
      if (!e.pooled) { // pending: the exact δ-test against each near source, newest first
        e.pooled = sources.view.drop(e.checked).reverseIterator.exists { s =>
          s.rect.minDist2(e.d.rect) <= delta * delta && { stats.deltaTests += 1; s.index.connectedTo(e.d.tiles) }
        }
        e.checked = sources.length
        if (e.pooled) heap.enqueue(e) else setLive(e, false) // dropped, until a later walk offers it again
      } else if (e.round < picked.length) { // stale: re-evaluate against R
        e.gain = covered.gain(e.d.tiles); e.round = picked.length; stats.gainEvals += 1
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

/** Work counts of [[CoverageSearch.search]], summed over the calls given it;
  * `nodesVisited` counts every node a walk reached, `skippedLive` included.
  */
final class SearchStats {
  var nodesVisited, skippedLive, reported, deltaTests, indexBuilds, gainEvals, heapPops, rounds = 0L
}
