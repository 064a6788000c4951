package repro.core.baselines

import repro.core.{CellSet, MBR}
import repro.core.dits.{OverlapHit, TopK}
import scala.collection.mutable

/** R-tree baseline [Guttman 84]: dynamic insertion with quadratic split,
  * one entry per dataset MBR (cell-coordinate space). OJSP finds all
  * dataset entries whose MBR intersects the query MBR and verifies the
  * exact cell-set intersection by sorted merge.
  */
final class RTreeIndex(val capacity: Int = 10) {

  private sealed trait RNode { var rect: MBR; var parent: RInternal = _ }
  private final class RInternal(var rect: MBR) extends RNode {
    val children: mutable.ArrayBuffer[RNode] = mutable.ArrayBuffer.empty
  }
  private final class RLeaf(var rect: MBR) extends RNode {
    val entries: mutable.ArrayBuffer[(Int, Array[Long], MBR)] = mutable.ArrayBuffer.empty
  }

  private var root: RNode = new RLeaf(MBR(0, 0, 0, 0))
  private var empty = true

  def nodeCount: Int = {
    def go(n: RNode): Int = n match {
      case _: RLeaf     => 1
      case i: RInternal => 1 + i.children.map(go).sum
    }
    go(root)
  }

  def insert(id: Int, cells: Array[Long]): Unit = {
    val r = CellSet.mbr(cells)
    if (empty) { root.rect = r; empty = false }
    val leaf = chooseLeaf(root, r)
    leaf.entries += ((id, cells, r))
    leaf.rect = if (leaf.entries.length == 1) r else leaf.rect.union(r)
    adjustUp(leaf.parent)
    if (leaf.entries.length > capacity) splitLeaf(leaf)
  }

  def delete(id: Int): Unit = {
    def find(n: RNode): Option[RLeaf] = n match {
      case l: RLeaf => if (l.entries.exists(_._1 == id)) Some(l) else None
      case i: RInternal => i.children.iterator.flatMap(find).nextOption()
    }
    find(root).foreach { l =>
      l.entries.remove(l.entries.indexWhere(_._1 == id))
      if (l.entries.nonEmpty) {
        l.rect = l.entries.map(_._3).reduce(_ union _)
        adjustUp(l.parent)
      }
      // Underfull leaves are tolerated (no condense pass) — updates in the
      // Fig. 22 workload are delete+insert, so occupancy recovers.
    }
  }

  def update(id: Int, newCells: Array[Long]): Unit = { delete(id); insert(id, newCells) }

  private def chooseLeaf(n: RNode, r: MBR): RLeaf = n match {
    case l: RLeaf => l
    case i: RInternal =>
      // Least enlargement, ties by smaller area (Guttman's ChooseLeaf).
      val best = i.children.minBy { c =>
        (c.rect.union(r).area - c.rect.area, c.rect.area)
      }
      chooseLeaf(best, r)
  }

  private def adjustUp(from: RInternal): Unit = {
    var p = from
    while (p != null) {
      p.rect = p.children.map(_.rect).reduce(_ union _)
      p = p.parent
    }
  }

  /** Guttman quadratic split over arbitrary items with an MBR accessor. */
  private def quadraticPartition[A](items: Seq[A], rectOf: A => MBR): (Seq[A], Seq[A]) = {
    // Pick seeds: the pair wasting the most area together.
    var s1 = 0; var s2 = 1; var worst = Double.MinValue
    for (i <- items.indices; j <- (i + 1) until items.length) {
      val waste = rectOf(items(i)).union(rectOf(items(j))).area -
        rectOf(items(i)).area - rectOf(items(j)).area
      if (waste > worst) { worst = waste; s1 = i; s2 = j }
    }
    val g1 = mutable.ArrayBuffer(items(s1)); var r1 = rectOf(items(s1))
    val g2 = mutable.ArrayBuffer(items(s2)); var r2 = rectOf(items(s2))
    val rest = items.indices.filter(i => i != s1 && i != s2).map(items)
    rest.foreach { it =>
      val e1 = r1.union(rectOf(it)).area - r1.area
      val e2 = r2.union(rectOf(it)).area - r2.area
      if (e1 <= e2) { g1 += it; r1 = r1.union(rectOf(it)) }
      else          { g2 += it; r2 = r2.union(rectOf(it)) }
    }
    (g1.toSeq, g2.toSeq)
  }

  private def replaceInParent(old: RNode, n1: RNode, n2: RNode): Unit = {
    val p = old.parent
    if (p == null) {
      val nr = new RInternal(n1.rect.union(n2.rect))
      nr.children += n1 += n2
      n1.parent = nr; n2.parent = nr
      root = nr
    } else {
      p.children.remove(p.children.indexWhere(_ eq old))
      p.children += n1 += n2
      n1.parent = p; n2.parent = p
      adjustUp(p)
      if (p.children.length > capacity) splitInternal(p)
    }
  }

  private def splitLeaf(l: RLeaf): Unit = {
    val (g1, g2) = quadraticPartition(l.entries.toSeq, (e: (Int, Array[Long], MBR)) => e._3)
    def mk(g: Seq[(Int, Array[Long], MBR)]): RLeaf = {
      val nl = new RLeaf(g.map(_._3).reduce(_ union _)); nl.entries ++= g; nl
    }
    replaceInParent(l, mk(g1), mk(g2))
  }

  private def splitInternal(n: RInternal): Unit = {
    val (g1, g2) = quadraticPartition(n.children.toSeq, (c: RNode) => c.rect)
    def mk(g: Seq[RNode]): RInternal = {
      val ni = new RInternal(g.map(_.rect).reduce(_ union _))
      ni.children ++= g; g.foreach(_.parent = ni); ni
    }
    replaceInParent(n, mk(g1), mk(g2))
  }

  /** OJSP: MBR filter down the tree, exact sorted-merge verification. */
  def overlapTopK(queryCells: Array[Long], k: Int): Seq[OverlapHit] = {
    require(k > 0, "k must be positive")
    if (queryCells.isEmpty || empty) return Seq.empty
    val qRect = CellSet.mbr(queryCells)
    val top = new TopK(k)
    def go(n: RNode): Unit = n match {
      case l: RLeaf =>
        l.entries.foreach { case (id, cells, r) =>
          if (r.intersects(qRect)) {
            val ov = CellSet.intersectionSize(cells, queryCells)
            if (ov > 0) top.offer(ov, id)
          }
        }
      case i: RInternal =>
        if (i.rect.intersects(qRect)) i.children.foreach(go)
    }
    go(root)
    top.result
  }
}

object RTreeIndex {
  def build(datasets: Iterable[(Int, Array[Long])], capacity: Int = 10): RTreeIndex = {
    val rt = new RTreeIndex(capacity)
    datasets.foreach { case (id, cells) => rt.insert(id, cells) }
    rt
  }
}
