package repro.core.dits

import java.util.concurrent.{Callable, CyclicBarrier, Executors, TimeUnit}
import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid}
import repro.core.baselines.StandardGreedy
import scala.util.Random

/** CoverageSearch's walks skip every subtree whose datasets all hold a live
  * entry, counted per node at the preorder positions DITS-L numbers on the
  * first search after a build or a write: exactness after Appendix C
  * writes, concurrent first searches, and the `SearchStats` counters.
  */
class CoverageSkipSpec extends AnyFunSuite {

  private def at(xys: (Int, Int)*): Array[Long] = CellSet.of(xys.map { case (x, y) => Grid.interleave(x, y) })

  /** The positions and totals a search reads: a preorder numbering of the
    * tree from 0, and each node's dataset count at its position.
    */
  private def totalsExact(ix: DitsLocal): Boolean = {
    val t = ix.subtreeTotals
    val nodes = scala.collection.mutable.ArrayBuffer.empty[TreeNode]
    def pre(n: TreeNode): Unit = { nodes += n; n match { case i: Internal => pre(i.left); pre(i.right); case _ => } }
    pre(ix.root)
    t.length == nodes.length && nodes.indices.forall(p => nodes(p).pos == p && t(p) == nodes(p).datasets.size)
  }

  /** One Appendix C write, resolved against the live ids when it runs:
    * `pick` chooses the dataset an update or delete touches (an insert into
    * an empty index when none is left), and an insert takes a fresh id.
    */
  private final class Write(val kind: Int, val pick: Int, val cells: Array[Long]) {
    override def toString: String =
      Seq("insert", "update", "delete")(kind) + s"($pick, ${cells.map(c => (Grid.cellX(c), Grid.cellY(c))).mkString(" ")})"
  }

  /** Tiny grids, leaves of 2 or 3 datasets (so inserts split leaves and
    * deletes collapse them), and 1–14 writes after the build.
    */
  private val writeWorlds = for {
    span <- Gen.oneOf(4, 8)
    cell = Gen.zip(Gen.choose(0, span - 1), Gen.choose(0, span - 1)).map { case (x, y) => Grid.interleave(x, y) }
    set = Gen.choose(1, 4).flatMap(Gen.listOfN(_, cell)).map(CellSet.of(_))
    n <- Gen.choose(1, 8)
    ds <- Gen.listOfN(n, set)
    writes <- Gen.choose(1, 14).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(0, 2), Gen.choose(0, 99), set)))
    query <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, cell)).map(CellSet.of(_))
    delta <- Gen.oneOf(0.0, 1.0, 1.5, 1e9)
    k <- Gen.oneOf(1, 3, 20)
    capacity <- Gen.oneOf(2, 3)
  } yield (ds.zipWithIndex.map(_.swap).toIndexedSeq, writes.map { case (w, p, cs) => new Write(w, p, cs) }, query, delta, k, capacity)

  test("CoverageSearch ≡ SG on the live pool after each Appendix C write, splits and collapses included (property)") {
    var splits = 0; var collapses = 0
    val prop = Prop.forAllNoShrink(writeWorlds) { case (ds, writes, query, delta, k, capacity) =>
      val ix = DitsLocal.build(ds, capacity)
      val live = scala.collection.mutable.TreeMap(ds: _*)
      var nextId = 100
      // Checked at once after each write; the first failure is reported.
      val failures = scala.collection.mutable.ArrayBuffer.empty[String]
      def check(after: String): Unit = {
        val (got, exp) = (CoverageSearch.search(ix, query, delta, k), StandardGreedy.sg(live.toSeq, query, delta, k))
        if (got != exp) failures += s"after $after: CoverageSearch=$got SG=$exp"
        if (!totalsExact(ix)) failures += s"after $after: stale positions or totals"
      }
      check("build")
      writes.foreach { w =>
        val before = ix.nodeCount
        val ids = live.keys.toIndexedSeq
        if (w.kind == 0 || ids.isEmpty) {
          ix.insert(DatasetNode(nextId, w.cells)); live(nextId) = w.cells; nextId += 1
        } else if (w.kind == 1) {
          val id = ids(w.pick % ids.length); ix.update(DatasetNode(id, w.cells)); live(id) = w.cells
        } else {
          val id = ids(w.pick % ids.length); ix.delete(id); live -= id
        }
        if (ix.nodeCount > before) splits += 1
        if (ix.nodeCount < before) collapses += 1
        check(w.toString)
      }
      Prop(failures.isEmpty) :| failures.headOption.getOrElse("")
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
    assert(splits >= 100 && collapses >= 100, s"$splits splits, $collapses collapses")
  }

  private def randomDatasets(rnd: Random, n: Int, span: Int): IndexedSeq[(Int, Array[Long])] =
    (0 until n).map { id =>
      val cx = rnd.nextInt(span); val cy = rnd.nextInt(span)
      id -> CellSet.of(Array.fill(1 + rnd.nextInt(20)) {
        Grid.interleave(math.min(span - 1, math.max(0, cx + rnd.nextInt(9) - 4)),
                        math.min(span - 1, math.max(0, cy + rnd.nextInt(9) - 4)))
      })
    }

  test("4 threads' first searches on one freshly built index each equal the sequential results") {
    val threads = 4
    val pool = Executors.newFixedThreadPool(threads)
    try {
      for (seed <- 0 until 30) {
        val rnd = new Random(seed)
        val ds = randomDatasets(rnd, 600, 128)
        val queries = randomDatasets(rnd, threads, 128).map(_._2)
        val seq = { val ix = DitsLocal.build(ds, 4); queries.map(CoverageSearch.search(ix, _, 3.0, 15)) }
        val ix = DitsLocal.build(ds, 4)
        val start = new CyclicBarrier(threads)
        val runs = (0 until threads).map { t =>
          pool.submit(new Callable[IndexedSeq[CoverageResult]] {
            def call(): IndexedSeq[CoverageResult] = {
              start.await(); queries.indices.map(i => CoverageSearch.search(ix, queries((i + t) % threads), 3.0, 15))
            }
          })
        }
        runs.zipWithIndex.foreach { case (f, t) =>
          val got = f.get(60, TimeUnit.SECONDS)
          queries.indices.foreach(i => assert(got(i) == seq((i + t) % threads), s"seed $seed thread $t query ${(i + t) % threads}"))
        }
        assert(totalsExact(ix))
      }
    } finally pool.shutdownNow()
  }

  test("the pick's walk skips the one leaf whose datasets are all live; SearchStats counts every step") {
    // One leaf holds A and B, both overlapping the query (δ = 0). The query's
    // walk reports both as pending; A is tested, pooled, evaluated and picked.
    // A's walk finds A picked and B pending, so it skips the leaf. B, tested
    // against A (not connected) then the query (connected), is picked last.
    val (a, b) = (at((0, 0), (0, 1), (1, 1)), at((1, 0), (2, 0)))
    val ix = DitsLocal.build(Seq(0 -> a, 1 -> b), 2)
    val st = new SearchStats
    val res = CoverageSearch.search(ix, at((0, 0), (1, 0)), 0.0, 2, st)
    assert(res == CoverageResult(Seq(0, 1), 5))
    val got = Seq(st.nodesVisited, st.skippedLive, st.reported, st.deltaTests, st.indexBuilds,
                  st.gainEvals, st.heapPops, st.rounds)
    assert(got == Seq(2, 1, 2, 3, 2, 2, 6, 2), "nodes, skipped, reported, δ-tests, builds, gains, pops, rounds")
  }

  test("SearchStats: picks ≤ rounds ≤ k, gain evaluations ≥ picks, and the other counts agree (property)") {
    val worlds = for {
      seed <- Gen.choose(0, 1 << 20)
      n <- Gen.choose(1, 40)
      span <- Gen.oneOf(8, 24, 48)
      delta <- Gen.oneOf(0.0, 1.0, 3.0, 1e9)
      k <- Gen.oneOf(1, 2, 5, 50)
      capacity <- Gen.oneOf(1, 2, 5)
    } yield (seed, n, span, delta, k, capacity)
    val prop = Prop.forAllNoShrink(worlds) { case (seed, n, span, delta, k, capacity) =>
      val rnd = new Random(seed)
      val ds = randomDatasets(rnd, n, span)
      val query = randomDatasets(rnd, 1, span).head._2
      val st = new SearchStats
      val picks = CoverageSearch.search(DitsLocal.build(ds, capacity), query, delta, k, st).picked.length
      Prop(picks <= st.rounds && st.rounds <= k) :| s"picks=$picks rounds=${st.rounds}" &&
        Prop(st.gainEvals >= picks) :| s"gains=${st.gainEvals} picks=$picks" &&
        Prop(st.heapPops >= picks + st.gainEvals) :| s"pops=${st.heapPops}" &&
        Prop(st.skippedLive <= st.nodesVisited) :| s"skipped=${st.skippedLive}" &&
        Prop(st.indexBuilds <= st.rounds && st.indexBuilds <= st.deltaTests) :| s"builds=${st.indexBuilds}"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
  }
}
