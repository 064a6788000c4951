package repro.core.dits

import repro.core.MBR
import scala.annotation.tailrec
import scala.collection.mutable

/** DITS-L — the per-data-source local index (Section V-A, Algorithm 1).
  *
  * A top-down median-split tree over dataset nodes: at each step the axis
  * with the widest MBR extent is chosen and the dataset nodes are split at
  * the median of their pivots on that axis. Recursion stops when ≤ f
  * dataset nodes remain, producing a leaf with an inverted index.
  *
  * The structure is mutable (bidirectional parent pointers) to support the
  * Appendix C insert/update/delete operations without a full rebuild.
  */
final class DitsLocal private (var root: TreeNode, val capacity: Int)
    extends Serializable {

  /** id → indexed dataset node; ids are unique within one index. */
  private val byId = mutable.HashMap.empty[Int, DatasetNode]
  root.datasets.foreach(register)

  private def register(d: DatasetNode): Unit = {
    require(!byId.contains(d.id), s"dataset ${d.id} already indexed")
    byId(d.id) = d
  }

  /** All dataset nodes currently indexed. */
  def datasets: Iterator[DatasetNode] = root.datasets
  def size: Int = byId.size

  /** Number of tree nodes (internal + leaf) — the Fig. 8 memory proxy.
    * Every internal node has two children, so there is one fewer of them
    * than there are leaves.
    */
  def nodeCount: Int = 2 * root.leaves.size - 1

  /** Total posting-list entries across all leaves. */
  def postingEntries: Long = root.leaves.map(_.slots.length.toLong).sum

  /** Each node's dataset total at its preorder [[TreeNode.pos]], numbered on
    * first use after a build or a write; one volatile write publishes both.
    */
  @volatile private var totals: Array[Int] = _
  private[dits] def subtreeTotals: Array[Int] = Option(totals).getOrElse {
    val t = new Array[Int](nodeCount)
    var next = 0
    def number(n: TreeNode): Int = {
      n.pos = next; next += 1
      t(n.pos) = n match { case l: Leaf => l.children.length; case i: Internal => number(i.left) + number(i.right) }
      t(n.pos)
    }
    number(root); totals = t; t
  }

  /** Appendix C insert: descend to the leaf whose pivot is nearest, add
    * the dataset node, and refresh MBRs up to the root. A leaf that is
    * already full is replaced by a subtree built over its children plus
    * the new node (the split). An id that is already indexed is rejected.
    */
  def insert(d: DatasetNode): Unit = {
    register(d)
    totals = null
    @tailrec def descend(n: TreeNode): Leaf = n match {
      case l: Leaf     => l
      case i: Internal =>
        descend(if (d.pivot.dist(i.left.pivot) <= d.pivot.dist(i.right.pivot)) i.left else i.right)
    }
    val leaf = descend(root)
    if (leaf.children.length >= capacity)
      replaceChild(leaf, DitsLocal.buildNode((leaf.children :+ d).toArray, capacity))
    else {
      // An empty leaf (the root of an emptied index) keeps a stale rect.
      leaf.rect = if (leaf.children.isEmpty) d.rect else leaf.rect.union(d.rect)
      leaf.add(d)
      refreshUp(leaf.parent)
    }
  }

  /** Appendix C update: replace the node with id `d.id` by `d` (delete +
    * re-insert keeps MBRs exact).
    */
  def update(d: DatasetNode): Unit = { delete(d.id); insert(d) }

  /** Appendix C delete: find the node by id, remove it from its leaf and
    * refresh ancestor MBRs.
    */
  def delete(id: Int): Unit = {
    val d = byId.remove(id)
      .getOrElse(throw new NoSuchElementException(s"dataset $id not indexed"))
    totals = null
    val leaf = d.parent
    leaf.remove(d)
    if (leaf.children.nonEmpty) {
      leaf.rect = leaf.children.map(_.rect).reduce(_ union _)
      refreshUp(leaf.parent)
    } else collapse(leaf)
  }

  private def collapse(leaf: Leaf): Unit = {
    val p = leaf.parent
    if (p == null) () // empty index keeps its (now stale) empty root leaf
    else {
      val sibling = if (p.left eq leaf) p.right else p.left
      replaceChild(p, sibling)
    }
  }

  private def replaceChild(old: TreeNode, nw: TreeNode): Unit = {
    val p = old.parent
    nw.parent = p
    if (p == null) root = nw
    else {
      if (p.left eq old) p.left = nw else p.right = nw
      refreshUp(p)
    }
  }

  private def refreshUp(from: Internal): Unit = {
    var p = from
    while (p != null) {
      p.rect = p.left.rect.union(p.right.rect)
      p = p.parent
    }
  }
}

object DitsLocal {

  /** Algorithm 1: build the local index over `datasets` with leaf capacity f. */
  def build(datasets: Iterable[(Int, Array[Long])], capacity: Int): DitsLocal = {
    require(datasets.nonEmpty, "cannot index an empty data source")
    val nodes = datasets.map { case (id, cells) => DatasetNode(id, cells) }.toArray
    new DitsLocal(buildNode(nodes, capacity), capacity)
  }

  private[dits] def buildNode(nodes: Array[DatasetNode], capacity: Int): TreeNode =
    medianSplit[DatasetNode, TreeNode](nodes, _.rect, capacity)(
      (rect, ds) => { val leaf = new Leaf(rect); leaf.addAll(ds); leaf },
      (rect, left, right) => {
        val in = new Internal(rect, left, right)
        left.parent = in; right.parent = in
        in
      })

  /** Algorithm 1's top-down median split, shared by DITS-L and DITS-G:
    * `items` go into one `leaf` when at most `capacity` remain, else they
    * are halved on the widest axis of their enclosing rect and both
    * halves are split again under an `internal` node.
    */
  private[dits] def medianSplit[A, N](items: Array[A], rectOf: A => MBR, capacity: Int)(
      leaf: (MBR, Array[A]) => N, internal: (MBR, N, N) => N): N = {
    def go(xs: Array[A]): N = {
      val rect = xs.map(rectOf).reduce(_ union _)
      if (xs.length <= capacity) leaf(rect, xs)
      else {
        // Widest dimension of the enclosing MBR (Alg. 1 lines 11–14).
        val d = if (rect.width(0) >= rect.width(1)) 0 else 1
        val keyed = xs.sortBy { x => val p = rectOf(x).pivot; if (d == 0) p.x else p.y }
        // Median split on pivot coordinate (Alg. 1 lines 15–19); index-based
        // halving also handles duplicate pivots, guaranteeing progress.
        val mid = keyed.length / 2
        val left = go(keyed.take(mid))
        internal(rect, left, go(keyed.drop(mid)))
      }
    }
    go(items)
  }
}
