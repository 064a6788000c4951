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
      val got = CoverageSearch.bestGain(cands, new CellSet.Cover(new CellSet.Tiles(covered)))(d => admitted(d.id)).map(_.id)
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

  /** Worlds where a dataset's size is a loose bound on its gain, so the
    * `|S_D|` seeds of CoverageSearch's heap are far from the true gains:
    * datasets inside the query (gain 0, seeded with up to the query's
    * size), copies under other ids (equal sizes and gains), single cells,
    * on 2^θ × 2^θ grids with θ ∈ {2, 3}, and k from 1 to past the
    * connected pool.
    */
  private val seededWorlds: Gen[Instance] = for {
    theta <- Gen.oneOf(2, 3)
    span = 1 << theta
    cell = Gen.zip(Gen.choose(0, span - 1), Gen.choose(0, span - 1)).map { case (x, y) => Grid.interleave(x, y) }
    query <- Gen.choose(1, 2 * span).flatMap(Gen.listOfN(_, cell)).map(CellSet.of(_))
    n <- Gen.choose(1, 14)
    ids <- Gen.pick(n, 0 until 40)
    idOrder <- Gen.long
    kinds <- Gen.listOfN(n, Gen.frequency(
      3 -> Gen.choose(2, 6).flatMap(Gen.listOfN(_, cell)).map(CellSet.of(_)),
      3 -> Gen.atLeastOne(query.toSeq).map(CellSet.of(_)),
      2 -> cell.map(c => Array(c))))
    copyOf <- Gen.listOfN(n, Gen.frequency(2 -> Gen.const(-1), 1 -> Gen.choose(0, n - 1)))
    delta <- Gen.oneOf(0.0, 1.0, 1.5, 2.0, 1e9)
    k <- Gen.oneOf(1, 2, n, n + 5)
    capacity <- Gen.oneOf(2, 3, 5)
  } yield {
    val cells = kinds.toArray
    for (i <- 0 until n if copyOf(i) >= 0 && copyOf(i) < i) cells(i) = cells(copyOf(i))
    Instance(new Random(idOrder).shuffle(ids.toIndexedSeq).zip(cells), query, delta, k, capacity)
  }

  test("CoverageSearch's |S_D|-seeded CELF heap ≡ SG: picks, tie order and coverage (property)") {
    val prop = Prop.forAll(seededWorlds) { in =>
      val a = CoverageSearch.search(DitsLocal.build(in.ds, in.capacity), in.query, in.delta, in.k)
      val b = StandardGreedy.sg(in.ds, in.query, in.delta, in.k)
      Prop(a == b) :| s"CoverageSearch=$a SG=$b"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }

  /** The greedy of Section VII-D written with nothing the engines share
    * but `CellSet.connected`: R is a Scala set, a dataset is admitted once
    * it is connected to the query or to a pick, and each round takes the
    * admitted, unpicked dataset of largest `|S_D \ R|`, ties to the
    * smaller id. SG, SG+DITS and CoverageSearch all keep R in a
    * `CellSet.Cover`, so this is the oracle of that kernel.
    */
  private def referenceGreedy(in: Instance): CoverageResult = {
    if (in.query.isEmpty) return CoverageResult(Nil, 0)
    var covered = in.query.toSet
    var connected = Set.empty[Int]
    def admit(member: Array[Long]): Unit =
      connected ++= in.ds.collect { case (id, cs) if CellSet.connected(cs, member, in.delta) => id }
    admit(in.query)
    val picked = scala.collection.mutable.ArrayBuffer.empty[Int]
    var open = true
    while (open && picked.length < in.k) {
      val cands = in.ds.filter { case (id, _) => connected(id) && !picked.contains(id) }
      if (cands.isEmpty) open = false
      else {
        val (id, cs) = cands.minBy { case (id, cs) => (-cs.count(c => !covered(c)), id) }
        picked += id; covered ++= cs; admit(cs)
      }
    }
    CoverageResult(picked.toSeq, covered.size)
  }

  for ((name, gen) <- Seq("instances" -> instances, "seededWorlds" -> seededWorlds)) {
    test(s"SG ≡ a reference greedy over Scala sets on $name (property)") {
      val prop = Prop.forAll(gen) { in =>
        val (got, exp) = (StandardGreedy.sg(in.ds, in.query, in.delta, in.k), referenceGreedy(in))
        Prop(got == exp) :| s"SG=$got reference=$exp"
      }
      val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
      assert(res.passed, res.status.toString)
    }
  }

  /** Worlds that span at least 64 tiles of 8×8 cells (so R's table can
    * grow several times): 2^θ × 2^θ grids with θ ∈ {6, 8, 10}, each dataset
    * and the query a stroke of 8–80 cells that steps up to 3 cells at a
    * time and starts anywhere or on a cell of an earlier stroke (so chains
    * connect at small δ), copies under other ids, shuffled ids.
    */
  private val wideWorlds: Gen[Instance] = (for {
    theta <- Gen.oneOf(6, 8, 10)
    top = (1 << theta) - 1
    clamp = (v: Int) => math.min(top, math.max(0, v))
    n <- Gen.choose(6, 14)
    ids <- Gen.pick(n, 0 until 40)
    idOrder <- Gen.long
    strokes <- Gen.listOfN(n + 1, for {
      len <- Gen.choose(8, 80)
      steps <- Gen.listOfN(len, Gen.zip(Gen.choose(-3, 3), Gen.choose(-3, 3)))
      anchor <- Gen.choose(-1, n)
      start <- Gen.zip(Gen.choose(0, top), Gen.choose(0, top))
    } yield (anchor, start, steps))
    copyOf <- Gen.listOfN(n, Gen.frequency(4 -> Gen.const(-1), 1 -> Gen.choose(0, n - 1)))
    delta <- Gen.oneOf(0.0, 1.0, 2.0, 5.0, 1e9)
    k <- Gen.oneOf(1, n / 2, n, n + 3)
    capacity <- Gen.oneOf(2, 3, 5)
  } yield {
    // A stroke starts on a cell of stroke `anchor` when that one is earlier.
    val walks = scala.collection.mutable.ArrayBuffer.empty[Seq[(Int, Int)]]
    strokes.foreach { case (anchor, start, steps) =>
      val from = if (anchor >= 0 && anchor < walks.length) walks(anchor)(steps.length % walks(anchor).length) else start
      walks += steps.scanLeft(from) { case ((x, y), (dx, dy)) => (clamp(x + dx), clamp(y + dy)) }
    }
    val cells = walks.map(w => CellSet.of(w.map { case (x, y) => Grid.interleave(x, y) })).toArray
    for (i <- 1 to n if copyOf(i - 1) >= 0 && copyOf(i - 1) < i - 1) cells(i) = cells(copyOf(i - 1) + 1)
    Instance(new Random(idOrder).shuffle(ids.toIndexedSeq).zip(cells.tail), cells.head, delta, k, capacity)
  }).suchThat(in => (in.query +: in.ds.map(_._2)).flatMap(_.map(_ >>> 6)).distinct.length >= 64)

  test("SG ≡ SG+DITS ≡ CoverageSearch ≡ a reference greedy on worlds of 64+ tiles (property)") {
    val prop = Prop.forAll(wideWorlds) { in =>
      val ix = DitsLocal.build(in.ds, in.capacity)
      val exp = referenceGreedy(in)
      val (sg, sgDits) = (StandardGreedy.sg(in.ds, in.query, in.delta, in.k),
                          StandardGreedy.sgDits(ix, in.query, in.delta, in.k))
      val cs = CoverageSearch.search(ix, in.query, in.delta, in.k)
      Prop(sg == exp) :| s"SG=$sg reference=$exp" && Prop(sgDits == exp) :| s"SG+DITS=$sgDits reference=$exp" &&
        Prop(cs == exp) :| s"CoverageSearch=$cs reference=$exp"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(300), prop)
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
        val tester = new CellSet.NeighborIndex(merged, in.delta)
        CoverageSearch.findConnected(ix.root, rect, tester, in.delta, all)
        CoverageSearch.findConnected(ix.root, rect, tester, in.delta, unknown, known)
      }
      val connected = in.ds.collect { case (id, cs) if CellSet.connected(cs, merged, in.delta) => id }.sorted
      val got = all.map(_.id).sorted; val gotUnknown = unknown.map(_.id).sorted
      Prop(got == connected) :| s"got=$got brute=$connected" &&
        Prop(gotUnknown == connected.filterNot(known)) :| s"got=$gotUnknown brute=$connected known=$known"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }

  /** The rect tests of FindConnectSet and SG compare squared gaps with δ²
    * on a θ = 28 grid, where squared gaps pass 2^53: single-cell datasets
    * at exactly δ from the query's corner cell (on an axis and on a 3-4-5
    * diagonal, up to 2^27 cells away) and one cell farther. Each engine
    * and FindConnectSet must keep exactly those within δ of the query or
    * of an earlier pick.
    */
  test("the squared rect test keeps datasets exactly δ away on a θ = 28 grid") {
    val top = (1 << 28) - 1
    val query = CellSet.of(Seq(Grid.interleave(top, top), Grid.interleave(top - 1, top)))
    for (delta <- Seq(0.0, 1.0, 5.0, 7.9, 8.0, 5.0 * (1 << 25), (1 << 27).toDouble, Double.PositiveInfinity)) {
      val d = if (delta.isInfinite) 1 << 27 else delta.toInt
      val steps = Seq((d, 0), (0, d), (3 * d / 5, 4 * d / 5), (d + 1, 0), (0, d + 2), (3 * d / 5 + 1, 4 * d / 5), (1, 1))
      val ds = steps.zipWithIndex.map { case ((dx, dy), id) => id -> Array(Grid.interleave(top - dx, top - dy)) }
      val in = Instance(ds.toIndexedSeq, query, delta, ds.length, 3)
      val ix = DitsLocal.build(in.ds, in.capacity)
      val exp = referenceGreedy(in)
      assert(StandardGreedy.sg(in.ds, query, delta, in.k) == exp, in)
      assert(StandardGreedy.sgDits(ix, query, delta, in.k) == exp, in)
      assert(CoverageSearch.search(ix, query, delta, in.k) == exp, in)
      val found = scala.collection.mutable.ArrayBuffer.empty[DatasetNode]
      CoverageSearch.findConnected(ix.root, CellSet.mbr(query), new CellSet.NeighborIndex(query, delta), delta, found)
      assert(found.map(_.id).sorted == ds.collect { case (id, cs) if CellSet.connected(cs, query, delta) => id }, in)
    }
  }

  private def at(xys: (Int, Int)*): Array[Long] = CellSet.of(xys.map { case (x, y) => Grid.interleave(x, y) })

  /** CoverageSearch on a hand-built world equals SG and the reference
    * greedy, and makes the picks `expected` that the scenario is built for.
    */
  private def assertPicks(in: Instance, expected: Seq[Int]): Unit = {
    val got = CoverageSearch.search(DitsLocal.build(in.ds, in.capacity), in.query, in.delta, in.k)
    assert(got == StandardGreedy.sg(in.ds, in.query, in.delta, in.k), in)
    assert(got == referenceGreedy(in), in)
    assert(got.picked == expected, in)
  }

  /** δ = 1, one leaf. Query (10,10); pick A (id 1) is an L from (11,10)
    * to (14,13), pick B (id 2) the bar (10,11)–(10,15). Dataset 0's rect
    * lies within δ of both picks' rects but not of the query's, so A's walk
    * and then B's offer it: it is pending on [B, A] when it reaches the top.
    * `onlyB` touches B's bar only, `onlyA` touches A's L only.
    */
  test("a pending dataset near two picks is tested against both: connected only to the second, or only to the first") {
    val q = at((10, 10))
    val a = at((11, 10), (12, 10), (13, 10), (14, 10), (14, 11), (14, 12), (14, 13))
    val b = at((10, 11), (10, 12), (10, 13), (10, 14), (10, 15))
    val onlyB = at((11, 13), (12, 13))
    val onlyA = at((12, 13), (13, 13))
    for (d <- Seq(onlyB, onlyA)) {
      assert(CellSet.connected(d, b, 1.0) == (d eq onlyB) && CellSet.connected(d, a, 1.0) == (d eq onlyA))
      assertPicks(Instance(IndexedSeq(1 -> a, 2 -> b, 0 -> d), q, 1.0, 3, 5), Seq(1, 2, 0))
    }
  }

  /** δ = 12, a leaf per dataset. Dataset 7 (one cell at (14,3)) lies in
    * the query's rect but farther than δ from both query cells, so the
    * query's walk leaves it pending. The pick P (id 3, the bar (5,0)–(9,0))
    * has a Lemma 4 upper bound ≤ δ to it, so P's walk pools it wholesale;
    * only that makes it a candidate, since its pending test is against the
    * query alone.
    */
  test("a pending dataset that a later pick's wholesale subtree pools is picked") {
    val q = at((0, 0), (30, 0))
    val p = at((5, 0), (6, 0), (7, 0), (8, 0), (9, 0))
    val d = at((14, 3))
    val pd = DatasetNode(7, d); val pp = DatasetNode(3, p)
    assert(!CellSet.connected(d, q, 12.0) && CellSet.connected(d, p, 12.0))
    assert(pd.rect.minDist2(CellSet.mbr(q)) <= 144 &&
      CoverageSearch.upperBound(pd.rect.pivotX, pd.rect.pivotY, pd.rect.radius,
                                pp.rect.pivotX, pp.rect.pivotY, pp.rect.radius) <= 12.0)
    assertPicks(Instance(IndexedSeq(7 -> d, 3 -> p), q, 12.0, 2, 1), Seq(3, 7))
  }

  /** δ = 1, one leaf. A (id 9) holds the query's 3 cells and 2 more, so it
    * tops the heap first and is pooled with gain 2; X (id 5, 4 cells) is
    * picked. X's walk leaves B (id 1, 2 cells touching X only) pending with
    * key 2: B ties A's gain and has the smaller id, so B must leave the heap
    * before A's pooled entry, fresh or not.
    */
  test("a pending dataset with a smaller id wins the tie against a fresh pooled top") {
    val q = at((10, 10), (11, 10), (12, 10))
    val a = at((10, 10), (11, 10), (12, 10), (10, 11), (11, 11))
    val x = at((13, 10), (14, 10), (15, 10), (16, 10))
    val b = at((16, 11), (17, 11))
    assertPicks(Instance(IndexedSeq(9 -> a, 5 -> x, 1 -> b), q, 1.0, 2, 5), Seq(5, 1))
  }

  /** δ = 1, one leaf. D (id 4, the bar (12,12)–(17,12)) lies within δ of
    * the query's rect, not of its cells, and is larger than A (id 6), so it
    * reaches the top first, fails its test and is dropped. A touches both
    * the query and D, so A's walk must offer D again.
    */
  test("a dropped pending dataset is offered again by a later pick's walk") {
    val q = at((10, 10), (10, 14))
    val d = at((12, 12), (13, 12), (14, 12), (15, 12), (16, 12), (17, 12))
    val a = at((11, 10), (12, 10), (12, 11))
    assert(!CellSet.connected(d, q, 1.0) && CellSet.connected(d, a, 1.0))
    assertPicks(Instance(IndexedSeq(4 -> d, 6 -> a), q, 1.0, 2, 5), Seq(6, 4))
  }

  /** Worlds where rects are loose: each dataset and the query are 1–3
    * short strokes scattered over a 2^θ grid (θ ∈ {3, 4, 5}), so many
    * datasets lie within δ of a query's or pick's rect without touching its
    * cells. Such a dataset is pending, often dropped, and offered again by
    * later picks. Leaves of one or two datasets and δ up to 10 let Lemma 4
    * pool whole subtrees (one holding a pending dataset is rare here; the
    * hand-built test above has one). Copies under other ids tie gains.
    */
  private val looseWorlds: Gen[Instance] = for {
    theta <- Gen.oneOf(3, 4, 5)
    top = (1 << theta) - 1
    stroke = for {
      x <- Gen.choose(0, top); y <- Gen.choose(0, top)
      steps <- Gen.choose(0, 3).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(-1, 1), Gen.choose(-1, 1))))
    } yield steps.scanLeft((x, y)) { case ((x, y), (dx, dy)) =>
      (math.min(top, math.max(0, x + dx)), math.min(top, math.max(0, y + dy))) }
    scattered = Gen.choose(1, 3).flatMap(Gen.listOfN(_, stroke)).map(s => at(s.flatten: _*))
    query <- scattered
    n <- Gen.choose(2, 16)
    ids <- Gen.pick(n, 0 until 40)
    idOrder <- Gen.long
    fresh <- Gen.listOfN(n, scattered)
    copyOf <- Gen.listOfN(n, Gen.frequency(4 -> Gen.const(-1), 1 -> Gen.choose(0, n - 1)))
    delta <- Gen.oneOf(0.0, 1.0, 1.5, 2.0, 3.0, 6.0, 10.0)
    k <- Gen.oneOf(1, 2, n / 2, n, n + 3)
    capacity <- Gen.oneOf(1, 2, 3, 5)
  } yield {
    val cells = fresh.toArray
    for (i <- 0 until n if copyOf(i) >= 0 && copyOf(i) < i) cells(i) = cells(copyOf(i))
    Instance(new Random(idOrder).shuffle(ids.toIndexedSeq).zip(cells), query, delta, k, capacity)
  }

  test("CoverageSearch's deferred δ-tests ≡ SG ≡ a reference greedy on worlds of loose rects (property)") {
    var loose = 0 // worlds with a dataset within δ of the query's rect but not of its cells
    val prop = Prop.forAll(looseWorlds) { in =>
      val qr = CellSet.mbr(in.query)
      if (in.ds.exists { case (_, cs) => CellSet.mbr(cs).minDist2(qr) <= in.delta * in.delta &&
                                         !CellSet.connected(cs, in.query, in.delta) }) loose += 1
      val got = CoverageSearch.search(DitsLocal.build(in.ds, in.capacity), in.query, in.delta, in.k)
      val (sg, exp) = (StandardGreedy.sg(in.ds, in.query, in.delta, in.k), referenceGreedy(in))
      Prop(got == sg) :| s"CoverageSearch=$got SG=$sg" && Prop(got == exp) :| s"CoverageSearch=$got reference=$exp"
    }
    val res = PropTest.check(PropTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
    assert(loose >= 300, s"only $loose worlds had a rect-near, unconnected dataset")
  }
}
