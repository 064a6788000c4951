package repro.perfbench

import repro.core.SynthSpatial
import repro.core.baselines.{BruteForce, StandardGreedy}
import repro.core.dits._
import scala.util.Random

/** ojsp-rw: one pooled DITS-L over all five sources at paper scale; OJSP
  * top-10 queries, and every 10th op an Appendix C update. Updates come in
  * pairs: the first replaces a dataset by a changed version, the second
  * puts the original back, so every pass starts from the same datasets
  * and has the same answers.
  */
final class OjspRw(dataSeed: Long, opSeed: Long) extends Workload {
  val Scale = 1.0
  val K = 10
  val PassOps = 1000
  val setupReps = 5
  val warmupSeconds = 6.0

  private var pool: IndexedSeq[(Int, Array[Long])] = _
  private var index: DitsLocal = _

  // Op i: a query's cells or a write (the node to insert).
  private var queries: Array[Array[Long]] = _
  private var writes: Array[DatasetNode] = _

  def setup(tr: Option[Tracer]): Unit = {
    pool = null; index = null
    val (p, ix) = Common.pooledIndex(Scale, dataSeed, tr)
    pool = p; index = ix
  }

  def passLength: Int = PassOps
  def isRead(i: Int): Boolean = i % 10 != 9
  private def writeNo(i: Int): Int = i / 10

  def prepare(): Unit = {
    val rnd = new Random(opSeed)
    val nWrites = PassOps / 10
    val qs = Common.stratified(pool, PassOps - nWrites, rnd)
    queries = new Array(PassOps); writes = new Array(PassOps)
    val specs = SynthSpatial.paperSources(Scale)
    val byId = index.datasets.map(d => d.id -> d).toMap
    var q = 0
    for (w <- 0 until nWrites by 2) {
      // A changed version: the same source and id, walked with another seed.
      val (id, _) = pool(rnd.nextInt(pool.length))
      val spec = specs(id / 1000000)
      val raw = SynthSpatial.dataset(spec, id % 1000000, opSeed * 1000003L + w)
      writes(w * 10 + 9) = DatasetNode(id, Common.grid.cellSet(raw.points))
      writes(w * 10 + 19) = byId(id)
    }
    for (i <- 0 until PassOps if isRead(i)) { queries(i) = pool(qs(q))._2; q += 1 }
  }

  def run(i: Int, parts: Parts): AnyRef =
    if (isRead(i)) parts(Kind.Ojsp)(OverlapSearch.search(index, queries(i), K))
    else { val d = writes(i); parts(Kind.Write)(index.update(d)); d }

  def runTraced(i: Int, parts: Parts, t: Tracer): AnyRef =
    if (isRead(i)) parts(Kind.Ojsp)(Replay.overlap(index, queries(i), K, t))
    else {
      // `update` is delete + insert; the replay times the two apart.
      val d = writes(i)
      parts(Kind.Write) {
        t.span("dits_local.delete")(index.delete(d.id))
        t.span("dits_local.insert")(index.insert(d))
      }
      d
    }

  /** A write is correct when the new node sits in a leaf whose inverted
    * index lists it under every one of its cells.
    */
  override def settle(i: Int, r: AnyRef): AnyRef = r match {
    case d: DatasetNode =>
      val leaf = d.parent
      val ok = leaf != null && leaf.children.exists(_ eq d) &&
        d.cells.forall(c => leaf.inv.get(c).exists(_.contains(d.id)))
      s"W${d.id}:${if (ok) "ok" else "not indexed"}"
    case _ => r
  }

  def canon(i: Int, r: AnyRef): String = r match {
    case s: String => s
    case hits: Seq[OverlapHit @unchecked] => Common.canonHits(hits)
  }

  def expected(refs: RefCache): IndexedSeq[String] = {
    // The dataset replaced at each op, if any (writes come in pairs).
    val replaced = new Array[DatasetNode](PassOps)
    var cur: DatasetNode = null
    for (i <- 0 until PassOps) {
      if (!isRead(i)) cur = if (writeNo(i) % 2 == 0) writes(i) else null
      replaced(i) = cur
    }
    val key = "ojsp-rw-" + Common.digest(
      Iterator[Any](dataSeed, opSeed, Scale, K) ++ pool.iterator.map(_._2) ++
      (0 until PassOps).iterator.map(i => if (isRead(i)) queries(i) else writes(i).cells))
    refs(key, PassOps) { i =>
      if (!isRead(i)) s"W${writes(i).id}:ok"
      else {
        val r = replaced(i)
        val state = if (r == null) pool else pool.view.map { case (id, c) => if (id == r.id) (id, r.cells) else (id, c) }
        Common.canonHits(BruteForce.overlapTopK(state, queries(i), K))
      }
    }
  }
}

/** cjsp-k50: CoverageSearch with δ=5 and k=50 over a pooled DITS-L at
  * scale 0.1, on a fixed query set. Reads only.
  */
final class CjspK50(dataSeed: Long, querySeed: Long, opSeed: Long) extends Workload {
  val Scale = 0.1
  val K = 50
  val Queries = 12
  val setupReps = 5
  val warmupSeconds = 10.0

  private var pool: IndexedSeq[(Int, Array[Long])] = _
  private var index: DitsLocal = _
  // The query set (pool positions) and, per op, which query it issues.
  private var qset: IndexedSeq[Int] = _
  private var order: IndexedSeq[Int] = _

  def setup(tr: Option[Tracer]): Unit = {
    pool = null; index = null
    val (p, ix) = Common.pooledIndex(Scale, dataSeed, tr)
    pool = p; index = ix
  }

  def passLength: Int = Queries
  def isRead(i: Int): Boolean = true

  def prepare(): Unit = {
    qset = Common.stratified(pool, Queries, new Random(querySeed)).sorted
    order = new Random(opSeed).shuffle(qset.indices.toIndexedSeq)
  }
  private def query(i: Int): Array[Long] = pool(qset(order(i)))._2

  def run(i: Int, parts: Parts): AnyRef =
    parts(Kind.Cjsp)(CoverageSearch.search(index, query(i), Common.Delta, K))

  def runTraced(i: Int, parts: Parts, t: Tracer): AnyRef =
    parts(Kind.Cjsp)(Replay.coverage(index, query(i), Common.Delta, K, t))

  def canon(i: Int, r: AnyRef): String = Common.canonCov(r.asInstanceOf[CoverageResult])

  // Keyed on the query set, so every op order shares one file.
  def expected(refs: RefCache): IndexedSeq[String] = {
    val key = "sg-k50-" + Common.digest(Iterator[Any](dataSeed, Common.Delta, K) ++
      pool.iterator.map(_._2) ++ qset.iterator.map(pool(_)._2))
    val ans = refs(key, qset.length)(j => Common.canonCov(StandardGreedy.sg(pool, pool(qset(j))._2, Common.Delta, K)))
    order.map(ans)
  }
}
