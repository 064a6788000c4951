package repro.core.dits

import org.scalacheck.{Gen, Prop, Test => PropTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, SynthSpatial}
import repro.core.baselines.{BruteForce, StandardGreedy}
import scala.util.Random

/** CoverageSearch (Algorithm 3): greedy equivalence with SG / SG+DITS on
  * fixed seeds and generated inputs, connectivity of results, degenerate
  * inputs, and the (1 − 1/e) guarantee in the unconstrained regime.
  */
class CoverageSearchSpec extends AnyFunSuite {

  private def randomDatasets(seed: Int, n: Int, span: Int = 48): IndexedSeq[(Int, Array[Long])] = {
    val rnd = new Random(seed)
    (0 until n).map { id =>
      val cx = rnd.nextInt(span); val cy = rnd.nextInt(span)
      id -> CellSet.of(Array.fill(1 + rnd.nextInt(20)) {
        val x = math.min(span - 1, math.max(0, cx + rnd.nextInt(9) - 4))
        val y = math.min(span - 1, math.max(0, cy + rnd.nextInt(9) - 4))
        Grid.interleave(x, y)
      })
    }
  }

  /** The three greedy variants make identical picks: they share the gain
    * rule and tie-break, and connectivity-to-merged equals
    * connectivity-to-some-member because dist(S, A ∪ B) = min(dist(S, A),
    * dist(S, B)).
    */
  for (seed <- 0 until 10; delta <- Seq(0.0, 2.0, 5.0); k <- Seq(3, 8)) {
    test(s"CoverageSearch ≡ SG ≡ SG+DITS (seed=$seed, δ=$delta, k=$k)") {
      val ds = randomDatasets(seed, 40)
      val ix = DitsLocal.build(ds, 5)
      val query = randomDatasets(seed + 500, 1).head._2
      val a = CoverageSearch.search(ix, query, delta, k)
      val b = StandardGreedy.sg(ds, query, delta, k)
      val c = StandardGreedy.sgDits(ix, query, delta, k)
      assert(a == b, s"CoverageSearch=$a SG=$b")
      assert(a == c, s"CoverageSearch=$a SG+DITS=$c")
    }
  }

  for (seed <- 0 until 8) {
    test(s"every result set satisfies spatial connectivity with the query (seed=$seed)") {
      val ds = randomDatasets(seed + 30, 35)
      val byId = ds.toMap
      val ix = DitsLocal.build(ds, 5)
      val query = randomDatasets(seed + 700, 1).head._2
      val delta = 3.0
      val res = CoverageSearch.search(ix, query, delta, 6)
      // BFS from the query over picked datasets must reach all of them.
      var frontier = List(CellSet.of(query))
      val remaining = scala.collection.mutable.Set(res.picked: _*)
      var progress = true
      while (progress && remaining.nonEmpty) {
        progress = false
        val reached = remaining.filter(id => frontier.exists(m =>
          CellSet.connected(byId(id), m, delta)))
        if (reached.nonEmpty) {
          progress = true
          reached.foreach { id => frontier ::= byId(id); remaining -= id }
        }
      }
      assert(remaining.isEmpty, s"picked ${res.picked} not connected: $remaining left")
    }
  }

  for (seed <- 0 until 6) {
    test(s"greedy ≤ exhaustive optimum, and ≥ (1−1/e)·OPT when fully connected (seed=$seed)") {
      val ds = randomDatasets(seed + 60, 10, span = 16) // tiny: exhaustive is 2^10
      val ix = DitsLocal.build(ds, 3)
      val query = randomDatasets(seed + 900, 1, span = 16).head._2
      val k = 3
      // Huge δ: connectivity never constrains — classical MCP regime.
      val delta = 1e9
      val greedy = CoverageSearch.search(ix, query, delta, k)
      val opt = BruteForce.coverageOptimal(ds, query, delta, k)
      assert(greedy.coverage <= opt.coverage)
      assert(greedy.coverage >= ((1 - 1 / math.E) * opt.coverage - 1e-9),
             s"greedy=${greedy.coverage} opt=${opt.coverage}")
    }
  }

  test("δ=0 requires an overlapping cell to connect") {
    // Two datasets: one shares a cell with the query, one is 1 cell away.
    val q = CellSet.of(Seq(Grid.interleave(5, 5)))
    val share = CellSet.of(Seq(Grid.interleave(5, 5), Grid.interleave(9, 9)))
    val near = CellSet.of(Seq(Grid.interleave(5, 6)))
    val ix = DitsLocal.build(Seq(0 -> share, 1 -> near), 2)
    val res0 = CoverageSearch.search(ix, q, 0.0, 2)
    assert(res0.picked.contains(0))
    // δ=0 still admits `near` AFTER `share` is merged? No: dist(near, q∪share)
    // = 1 > 0. So only the sharing dataset (and nothing else) is reachable.
    assert(!res0.picked.contains(1))
    // δ=1 admits both (near is 1 away from the query).
    val res1 = CoverageSearch.search(ix, q, 1.0, 2)
    assert(res1.picked.toSet == Set(0, 1))
  }

  test("stops early when no connected dataset remains") {
    val q = CellSet.of(Seq(Grid.interleave(0, 0)))
    val far = CellSet.of(Seq(Grid.interleave(40, 40)))
    val ix = DitsLocal.build(Seq(0 -> far), 2)
    val res = CoverageSearch.search(ix, q, 1.0, 5)
    assert(res.picked.isEmpty)
    assert(res.coverage == 1) // just the query cell
  }

  test("picked datasets are distinct and at most k") {
    val ds = randomDatasets(77, 30)
    val ix = DitsLocal.build(ds, 5)
    val query = ds.head._2
    val res = CoverageSearch.search(ix, query, 5.0, 7)
    assert(res.picked.distinct.length == res.picked.length)
    assert(res.picked.length <= 7)
  }

  test("coverage equals |S_Q ∪ picked| recomputed from scratch") {
    val ds = randomDatasets(88, 25)
    val byId = ds.toMap
    val ix = DitsLocal.build(ds, 4)
    val query = randomDatasets(888, 1).head._2
    val res = CoverageSearch.search(ix, query, 4.0, 5)
    val union = res.picked.foldLeft(CellSet.of(query))((acc, id) => CellSet.union(acc, byId(id)))
    assert(res.coverage == union.length)
  }

  test("marginal gains are non-increasing across greedy rounds (submodularity)") {
    val ds = randomDatasets(99, 40)
    val byId = ds.toMap
    val ix = DitsLocal.build(ds, 5)
    val query = randomDatasets(999, 1).head._2
    val res = CoverageSearch.search(ix, query, 1e9, 8) // unconstrained
    var covered = CellSet.of(query)
    var last = Int.MaxValue
    res.picked.foreach { id =>
      val g = CellSet.marginalGain(byId(id), covered)
      assert(g <= last, "greedy gain increased — not the max-gain pick")
      last = g
      covered = CellSet.union(covered, byId(id))
    }
  }

  test("route data: CoverageSearch ≡ SG on realistic clusters") {
    val spec = SynthSpatial.testSources(1, 50, 40).head
    val ds = SynthSpatial.cellSource(spec, Grid.world(9))
    val ix = DitsLocal.build(ds, 8)
    val query = ds(5)._2
    assert(CoverageSearch.search(ix, query, 5.0, 10) ==
           StandardGreedy.sg(ds, query, 5.0, 10))
  }

  test("equal gains go to the smaller id whatever the input order") {
    val q = CellSet.of(Seq(Grid.interleave(0, 0)))
    val ds = IndexedSeq(7 -> CellSet.of(Seq(Grid.interleave(1, 0))),
                        3 -> CellSet.of(Seq(Grid.interleave(0, 1))))
    val ix = DitsLocal.build(ds, 2)
    val expected = CoverageResult(Seq(3), 2)
    assert(CoverageSearch.search(ix, q, 1.0, 1) == expected)
    assert(StandardGreedy.sg(ds, q, 1.0, 1) == expected)
    assert(StandardGreedy.sgDits(ix, q, 1.0, 1) == expected)
  }

  test("an empty query covers nothing") {
    val ds = randomDatasets(5, 10)
    val ix = DitsLocal.build(ds, 4)
    val none = CoverageResult(Nil, 0)
    assert(CoverageSearch.search(ix, Array.emptyLongArray, 3.0, 4) == none)
    assert(StandardGreedy.sg(ds, Array.emptyLongArray, 3.0, 4) == none)
    assert(StandardGreedy.sgDits(ix, Array.emptyLongArray, 3.0, 4) == none)
  }

  for (delta <- Seq(-2.0, -0.5, Double.NaN)) {
    test(s"δ=$delta is rejected by every CJSP engine and by NeighborIndex") {
      val ds = randomDatasets(6, 10)
      val ix = DitsLocal.build(ds, 4)
      val q = ds.head._2
      intercept[IllegalArgumentException](CoverageSearch.search(ix, q, delta, 3))
      intercept[IllegalArgumentException](StandardGreedy.sg(ds, q, delta, 3))
      intercept[IllegalArgumentException](StandardGreedy.sgDits(ix, q, delta, 3))
      intercept[IllegalArgumentException](new CellSet.NeighborIndex(q, delta))
    }
  }

  for (k <- Seq(0, -1)) {
    test(s"k=$k is rejected by every CJSP engine, even for an empty query") {
      val ds = randomDatasets(6, 10)
      val ix = DitsLocal.build(ds, 4)
      for (q <- Seq(ds.head._2, Array.emptyLongArray)) {
        intercept[IllegalArgumentException](CoverageSearch.search(ix, q, 3.0, k))
        intercept[IllegalArgumentException](StandardGreedy.sg(ds, q, 3.0, k))
        intercept[IllegalArgumentException](StandardGreedy.sgDits(ix, q, 3.0, k))
      }
    }
  }

  /** The shared greedy step is the (gain desc, id asc) argmax over the
    * admitted candidates in any input order: equal-size candidates, copies
    * and candidates wholly inside `covered` (gain 0) included.
    */
  test("bestGain ≡ brute-force (gain desc, id asc) argmax over admitted candidates (property)") {
    val cases = for {
      in <- instances
      covered <- Gen.oneOf(Gen.const(in.query), Gen.someOf(in.ds.map(_._2)).map(_.foldLeft(in.query)(CellSet.union)))
      admitted <- Gen.someOf(in.ds.map(_._1))
      order <- Gen.long
    } yield (in, covered, admitted.toSet, order)
    val prop = Prop.forAllNoShrink(cases) { case (in, covered, admitted, order) =>
      val cands = new Random(order).shuffle(in.ds.map { case (id, cs) => DatasetNode(id, cs) })
      val got = CoverageSearch.bestGain(cands, covered)(d => admitted(d.id)).map(_.id)
      val exp = in.ds.filter(d => admitted(d._1)).map { case (id, cs) => (CellSet.marginalGain(cs, covered), -id) }
        .maxOption.map(-_._2)
      Prop(got == exp) :| s"got=$got brute=$exp"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }

  /** A generated CJSP instance; arrays print as cell coordinates. */
  private final case class Instance(ds: IndexedSeq[(Int, Array[Long])], query: Array[Long],
                                    delta: Double, k: Int, capacity: Int) {
    private def show(cs: Array[Long]) = cs.map(c => (Grid.cellX(c), Grid.cellY(c))).mkString("{", " ", "}")
    override def toString: String =
      s"δ=$delta k=$k f=$capacity query=${show(query)} " +
        ds.map { case (id, cs) => s"$id:${show(cs)}" }.mkString(" ")
  }

  /** Tiny grids (so much is connected), few small datasets (so gains tie),
    * copies of earlier datasets under other ids, ids in shuffled order, an
    * occasional empty query, δ from 0 to unconstrained and k at 1, n and
    * beyond n.
    */
  private val instances: Gen[Instance] = for {
    span <- Gen.oneOf(2, 4, 8, 16)
    cell = Gen.zip(Gen.choose(0, span - 1), Gen.choose(0, span - 1)).map { case (x, y) => Grid.interleave(x, y) }
    n <- Gen.choose(1, 12)
    ids <- Gen.pick(n, 0 until 40)
    idOrder <- Gen.long
    fresh <- Gen.listOfN(n, Gen.choose(1, 5).flatMap(Gen.listOfN(_, cell)))
    copyOf <- Gen.listOfN(n, Gen.frequency(3 -> Gen.const(-1), 1 -> Gen.choose(0, n - 1)))
    qSize <- Gen.frequency(1 -> Gen.const(0), 9 -> Gen.choose(1, 4))
    query <- Gen.listOfN(qSize, cell)
    delta <- Gen.oneOf(0.0, 1.0, 1.5, 1e9)
    k <- Gen.oneOf(1, n, n + 3)
    capacity <- Gen.oneOf(2, 3, 5)
  } yield {
    val cells = fresh.map(CellSet.of(_)).toArray
    for (i <- 0 until n if copyOf(i) >= 0 && copyOf(i) < i) cells(i) = cells(copyOf(i))
    val shuffled = new Random(idOrder).shuffle(ids.toIndexedSeq)
    Instance(shuffled.zip(cells), CellSet.of(query), delta, k, capacity)
  }

  test("CoverageSearch ≡ SG ≡ SG+DITS on generated inputs (property)") {
    val prop = Prop.forAll(instances) { in =>
      val ix = DitsLocal.build(in.ds, in.capacity)
      val a = CoverageSearch.search(ix, in.query, in.delta, in.k)
      val b = StandardGreedy.sg(in.ds, in.query, in.delta, in.k)
      val c = StandardGreedy.sgDits(ix, in.query, in.delta, in.k)
      Prop(a == b) :| s"CoverageSearch=$a SG=$b" && Prop(a == c) :| s"CoverageSearch=$a SG+DITS=$c"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }

  /** FindConnectSet is exact: with or without a `known` predicate it
    * returns every dataset connected to the merged set and nothing else,
    * whatever the Lemma 4 and rect bounds prune. δ = 0 and δ = 1 put
    * connected datasets right at the rect bound.
    */
  test("findConnected ≡ brute-force connectivity filter, with and without known (property)") {
    val cases = for {
      in <- instances
      merged <- Gen.oneOf(Gen.const(in.query), Gen.oneOf(in.ds).map(_._2))
      known <- Gen.someOf(in.ds.map(_._1))
    } yield (in, merged, known.toSet)
    val prop = Prop.forAll(cases) { case (in, merged, known) =>
      val ix = DitsLocal.build(in.ds, in.capacity)
      val all = scala.collection.mutable.ArrayBuffer.empty[DatasetNode]
      val unknown = scala.collection.mutable.ArrayBuffer.empty[DatasetNode]
      if (merged.nonEmpty) {
        val rect = CellSet.mbr(merged)
        CoverageSearch.findConnected(ix.root, rect, merged, in.delta, all)
        CoverageSearch.findConnected(ix.root, rect, new CellSet.NeighborIndex(merged, in.delta),
                                     in.delta, unknown, known)
      }
      val connected = in.ds.collect { case (id, cs) if CellSet.connected(cs, merged, in.delta) => id }.sorted
      val got = all.map(_.id).sorted; val gotUnknown = unknown.map(_.id).sorted
      Prop(got == connected) :| s"got=$got brute=$connected" &&
        Prop(gotUnknown == connected.filterNot(known)) :| s"got=$gotUnknown brute=$connected known=$known"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }
}
