"""Custom VG functions for the SimSQL implementations.

SimSQL ships library VG functions (Dirichlet, Normal, InvWishart, ...);
the paper's codes additionally write their own in C++ — it names
``multinomial_membership`` for the GMM explicitly.  The functions here
are those bespoke pieces.  Internal math is charged at C++ rates by the
executor; every *output row* still pays the relational per-tuple price,
which is the SimSQL trade-off the paper measures.

Model tables arrive as flat tuple lists (a covariance is d^2 rows); the
parse of broadcast model parameters is cached per parameter-table
object, mirroring how a real VG function would deserialize its
parameter record once per mapper rather than once per invocation.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import gmm, hmm, lasso, lda
from repro.kernels.imputation import impute_point, marginal_membership_weights
from repro.relational.vg import VGFunction
from repro.stats import Categorical, MultivariateNormal, sample_categorical_rows
from repro.stats.mvn import ROW_STABLE_MAX_DIM


def _rows_to_vector(rows: list[tuple]) -> np.ndarray:
    """(index, value) rows -> dense vector; the indices must be 0..n-1.

    An index left unset would otherwise carry whatever the allocator
    left there, and draws made from it would depend on memory history.
    """
    out = np.full(len(rows), np.nan)
    for index, value in rows:
        out[int(index)] = value
    if np.isnan(out).any():
        raise ValueError(f"(index, value) rows do not cover 0..{len(rows) - 1}")
    return out


def _rows_to_matrix(rows: list[tuple], dim: int) -> np.ndarray:
    """(i, j, value) rows -> dense (dim, dim) matrix."""
    out = np.zeros((dim, dim))
    for i, j, value in rows:
        out[int(i), int(j)] = value
    return out


class _ModelCache:
    """One-slot parse cache keyed on the parameter rows' identity.

    The cache holds the rows object itself: a bare ``id`` could be
    reused by the next call's freshly allocated row list, which would
    then hit the previous iteration's parsed model.
    """

    def __init__(self) -> None:
        self._key = None
        self._value = None

    def get(self, key_obj, build):
        if self._key is not key_obj:
            self._value = build()
            self._key = key_obj
        return self._value


def parse_gmm_model(means_rows, covas_rows, probs_rows) -> gmm.GMMState:
    """Flat model tables -> a GMMState.

    ``means_rows``: (clus_id, dim_id, value); ``covas_rows``:
    (clus_id, d1, d2, value); ``probs_rows``: (clus_id, prob).
    """
    clusters = len(probs_rows)
    dim = max(int(r[1]) for r in means_rows) + 1
    pi = np.empty(clusters)
    for clus_id, prob in probs_rows:
        pi[int(clus_id)] = prob
    means = np.zeros((clusters, dim))
    for clus_id, dim_id, value in means_rows:
        means[int(clus_id), int(dim_id)] = value
    covas = np.zeros((clusters, dim, dim))
    for clus_id, d1, d2, value in covas_rows:
        covas[int(clus_id), int(d1), int(d2)] = value
    return gmm.GMMState(pi, means, covas)


class MultinomialMembershipVG(VGFunction):
    """The paper's bespoke GMM membership VG (Section 5.2).

    Grouped per data point: parameter ``point`` holds the point's
    (dim_id, value) rows; ``means``/``covas``/``probs`` broadcast the
    model.  Emits one ``(clus_id,)`` row.
    """

    name = "multinomial_membership"
    output_columns = ("clus_id",)

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._cache = _ModelCache()

    def invoke(self, rng, params):
        point = _rows_to_vector(self._require(params, "point"))
        state = self._cache.get(
            params["means"],
            lambda: parse_gmm_model(params["means"], params["covas"], params["probs"]),
        )
        weights = gmm.membership_weights(point[None, :], state)[0]
        return [(int(Categorical(weights).sample(self.rng)),)]

    def invoke_batch(self, rng, grouped):
        """All points of one membership update in a single kernel call.

        The model tables broadcast, so every group shares one parsed
        state; the stacked points go through one
        ``gmm.membership_weights`` call and one vectorized categorical
        draw, which consumes ``self.rng`` exactly like the per-point
        ``Categorical(...).sample`` sequence.  Above
        ``ROW_STABLE_MAX_DIM`` the triangular solve is no longer bitwise
        row-decomposable, so the batch declines and the per-point loop
        runs instead.
        """
        if not grouped:
            return []
        first = grouped[0][1]
        if len(self._require(first, "point")) > ROW_STABLE_MAX_DIM:
            return None
        state = self._cache.get(
            first["means"],
            lambda: parse_gmm_model(first["means"], first["covas"], first["probs"]),
        )
        points = np.vstack([
            _rows_to_vector(self._require(params, "point"))
            for _, params in grouped
        ])
        weights = gmm.membership_weights(points, state)
        labels = sample_categorical_rows(self.rng, weights)
        return [key + (int(label),)
                for (key, _), label in zip(grouped, labels)]

    def flops_per_invocation(self, params):
        d = len(params.get("point", (1,)))
        k = len(params.get("probs", (1,)))
        return float(k * (3 * d * d + 4 * d))


class PosteriorMeanVG(VGFunction):
    """Draws one cluster's posterior mean (needs a matrix inverse, so it
    lives in the VG function, not SQL).

    Grouped per cluster: ``cov`` rows (d1, d2, value) are the cluster's
    current covariance; ``sums`` rows (dim_id, value) the membership-
    weighted coordinate sums; ``count`` one (n,) row.  ``prior_mean``
    (dim_id, value) and ``prior_prec`` (d1, d2, value) broadcast.
    """

    name = "posterior_mean"
    output_columns = ("dim_id", "value")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def invoke(self, rng, params):
        mu0 = _rows_to_vector(self._require(params, "prior_mean"))
        d = mu0.size
        lambda0 = _rows_to_matrix(self._require(params, "prior_prec"), d)
        sigma = _rows_to_matrix(self._require(params, "cov"), d)
        sums = _rows_to_vector(self._require(params, "sums"))
        (count,), = self._require(params, "count")
        draw = gmm.sample_cluster_mean(self.rng, lambda0, mu0, sigma, count, sums)
        return [(i, float(draw[i])) for i in range(d)]

    # Per-cluster matrix draws interleave; strip the dispatch only.
    invoke_batch = VGFunction._strip_batch

    def flops_per_invocation(self, params):
        d = max(1, len(params.get("prior_mean", (1,))))
        return float(6 * d**3)


class LassoBetaVG(VGFunction):
    """Draws the Bayesian Lasso's beta vector (paper Section 6.2).

    A single invocation: ``gram`` rows (d1, d2, value) are the
    materialized Gram matrix, ``xty`` rows (dim_id, value), ``tau`` rows
    (rigid, tau2_inv) the current auxiliary precisions, ``sigma`` one
    (sigma2,) row.  The ``A^-1 X^T y`` solve happens inside the VG —
    the paper notes SimSQL pays dearly because A itself arrives as p^2
    tuples.
    """

    name = "lasso_beta"
    output_columns = ("rigid", "value")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._gram_cache = _ModelCache()

    def invoke(self, rng, params):
        xty = _rows_to_vector(self._require(params, "xty"))
        p = xty.size
        gram = self._gram_cache.get(
            params["gram"], lambda: _rows_to_matrix(params["gram"], p)
        )
        tau2_inv = _rows_to_vector(self._require(params, "tau"))
        (sigma2,), = self._require(params, "sigma")
        draw = lasso.sample_beta_from(self.rng, gram, xty, tau2_inv, float(sigma2))
        return [(j, float(draw[j])) for j in range(p)]

    # A single invocation per plan; strip the dispatch only.
    invoke_batch = VGFunction._strip_batch

    def flops_per_invocation(self, params):
        p = max(1, len(params.get("xty", (1,))))
        return float(4 * p**3)


class HMMDocumentVG(VGFunction):
    """Document-based HMM resampling VG (paper Section 7.5).

    Grouped per document: ``doc`` rows (pos, word, state); broadcast
    ``delta0`` (s, p), ``delta`` (s, s2, p), ``psi`` (s, w, p) — note
    psi is W-wide per state, all as tuples.  Emits the updated
    (pos, word, state) rows; the statistics f/g/h are then aggregated
    with SQL over the emitted tuples, which is exactly the cost the
    paper calls out in Section 7.6.
    """

    name = "hmm_document"
    output_columns = ("pos", "word", "state")

    def __init__(self, rng: np.random.Generator, states: int, vocabulary: int,
                 iteration_fn) -> None:
        self.rng = rng
        self.states = states
        self.vocabulary = vocabulary
        self.iteration_fn = iteration_fn  # () -> current iteration index
        self._cache = _ModelCache()

    def _parse_model(self, params) -> hmm.HMMState:
        delta0 = _rows_to_vector(params["delta0"])
        delta = np.zeros((self.states, self.states))
        for s, s2, p in params["delta"]:
            delta[int(s), int(s2)] = p
        psi = np.zeros((self.states, self.vocabulary))
        for s, w, p in params["psi"]:
            psi[int(s), int(w)] = p
        return hmm.HMMState(delta0=delta0, delta=delta, psi=psi)

    def invoke(self, rng, params):
        model = self._cache.get(params["psi"], lambda: self._parse_model(params))
        doc = sorted(self._require(params, "doc"))
        words = np.array([int(r[1]) for r in doc])
        states = np.array([int(r[2]) for r in doc])
        updated = hmm.resample_document_states(self.rng, words, states, model,
                                               self.iteration_fn())
        return [(pos, int(w), int(s)) for pos, (w, s) in enumerate(zip(words, updated))]

    def invoke_batch(self, rng, grouped):
        """Every document of one update in a single FFBS batch call.

        The model tables broadcast (one parse); the alternating-parity
        sweeps run through ``hmm.resample_documents_batch``, whose one
        stacked categorical draw consumes ``self.rng`` exactly like the
        sequential per-document sweeps.
        """
        if not grouped:
            return []
        first = grouped[0][1]
        model = self._cache.get(first["psi"], lambda: self._parse_model(first))
        values = []
        for _, params in grouped:
            doc = sorted(self._require(params, "doc"))
            words = np.array([int(r[1]) for r in doc])
            states = np.array([int(r[2]) for r in doc])
            values.append((words, states))
        updated = hmm.resample_documents_batch(self.rng, values, model,
                                               self.iteration_fn())
        out = []
        for (key, _), (words, _), new_states in zip(grouped, values, updated):
            out.extend(key + (pos, int(w), int(s))
                       for pos, (w, s) in enumerate(zip(words, new_states)))
        return out

    def flops_per_invocation(self, params):
        return float(len(params.get("doc", ())) * self.states * 4)


class HMMWordVG(VGFunction):
    """Word-based HMM state resampling (paper Section 7.2).

    One invocation per word position ("cell").  Params per group:
    ``cell`` one (word, is_start, is_end) row; ``prev`` / ``next``
    zero-or-one (state,) rows from the neighbor joins; model tables
    broadcast.  Emits the new ``(state,)``.
    """

    name = "hmm_word"
    output_columns = ("state",)

    def __init__(self, rng: np.random.Generator, states: int, vocabulary: int) -> None:
        self.rng = rng
        self.states = states
        self.vocabulary = vocabulary
        self._cache = _ModelCache()

    def _parse_model(self, params) -> hmm.HMMState:
        delta0 = _rows_to_vector(params["delta0"])
        delta = np.zeros((self.states, self.states))
        for s, s2, p in params["delta"]:
            delta[int(s), int(s2)] = p
        psi = np.zeros((self.states, self.vocabulary))
        for s, w, p in params["psi"]:
            psi[int(s), int(w)] = p
        return hmm.HMMState(delta0=delta0, delta=delta, psi=psi)

    def invoke(self, rng, params):
        model = self._cache.get(params["psi"], lambda: self._parse_model(params))
        (word, is_start, is_end), = self._require(params, "cell")
        prev_rows = params.get("prev", [])
        next_rows = params.get("next", [])
        prev_state = (None if is_start or not prev_rows
                      else int(prev_rows[0][0]))
        next_state = (int(next_rows[0][0]) if not is_end and next_rows
                      else None)
        weights = hmm.word_state_weights(model, int(word), prev_state, next_state)
        return [(int(Categorical(weights).sample(self.rng)),)]

    def invoke_batch(self, rng, grouped):
        """All word cells of one parity update in one stacked draw.

        The per-cell weight vectors assemble in group order and resolve
        through a single ``sample_categorical_rows`` call — the same
        draw stream as the sequential per-cell ``Categorical`` samples.
        """
        if not grouped:
            return []
        first = grouped[0][1]
        model = self._cache.get(first["psi"], lambda: self._parse_model(first))
        weights = np.empty((len(grouped), self.states))
        for i, (_, params) in enumerate(grouped):
            (word, is_start, is_end), = self._require(params, "cell")
            prev_rows = params.get("prev", [])
            next_rows = params.get("next", [])
            prev_state = (None if is_start or not prev_rows
                          else int(prev_rows[0][0]))
            next_state = (int(next_rows[0][0]) if not is_end and next_rows
                          else None)
            weights[i] = hmm.word_state_weights(model, int(word), prev_state,
                                                next_state)
        draws = sample_categorical_rows(self.rng, weights)
        return [key + (int(s),) for (key, _), s in zip(grouped, draws)]

    def flops_per_invocation(self, params):
        return float(self.states * 4)


class HMMSuperVertexVG(VGFunction):
    """Super-vertex HMM VG: a block of documents per invocation, but —
    as the paper stresses (Section 7.6) — every resampled state still
    leaves the function as a tuple for SQL to aggregate."""

    name = "hmm_super_vertex"
    output_columns = ("doc_id", "pos", "word", "state")

    def __init__(self, rng: np.random.Generator, states: int, vocabulary: int,
                 iteration_fn) -> None:
        self.rng = rng
        self.states = states
        self.vocabulary = vocabulary
        self.iteration_fn = iteration_fn
        self._cache = _ModelCache()

    def invoke(self, rng, params):
        parser = HMMWordVG(self.rng, self.states, self.vocabulary)
        model = self._cache.get(params["psi"], lambda: parser._parse_model(params))
        by_doc: dict[int, list[tuple]] = {}
        for doc_id, pos, word, state in self._require(params, "doc"):
            by_doc.setdefault(int(doc_id), []).append((int(pos), int(word), int(state)))
        out = []
        iteration = self.iteration_fn()
        for doc_id, rows in sorted(by_doc.items()):
            rows.sort()
            words = np.array([r[1] for r in rows])
            states = np.array([r[2] for r in rows])
            updated = hmm.resample_document_states(self.rng, words, states,
                                                   model, iteration)
            out.extend(
                (doc_id, pos, int(w), int(s))
                for pos, (w, s) in enumerate(zip(words, updated))
            )
        return out

    def invoke_batch(self, rng, grouped):
        """Every super vertex's block in one FFBS batch call.

        Documents flatten in (group, doc_id) order — the scalar loop's
        exact sequence — and the stacked draw consumes ``self.rng``
        identically.
        """
        if not grouped:
            return []
        parser = HMMWordVG(self.rng, self.states, self.vocabulary)
        first = grouped[0][1]
        model = self._cache.get(first["psi"], lambda: parser._parse_model(first))
        iteration = self.iteration_fn()
        values = []
        doc_keys = []  # (group key, doc_id, words) in scalar order
        for key, params in grouped:
            by_doc: dict[int, list[tuple]] = {}
            for doc_id, pos, word, state in self._require(params, "doc"):
                by_doc.setdefault(int(doc_id), []).append(
                    (int(pos), int(word), int(state)))
            for doc_id, rows in sorted(by_doc.items()):
                rows.sort()
                words = np.array([r[1] for r in rows])
                states = np.array([r[2] for r in rows])
                values.append((words, states))
                doc_keys.append((key, doc_id, words))
        updated = hmm.resample_documents_batch(self.rng, values, model, iteration)
        out = []
        for (key, doc_id, words), new_states in zip(doc_keys, updated):
            out.extend(key + (doc_id, pos, int(w), int(s))
                       for pos, (w, s) in enumerate(zip(words, new_states)))
        return out

    def flops_per_invocation(self, params):
        return float(len(params.get("doc", ())) * self.states * 4)


class LDAWordVG(VGFunction):
    """Word-based LDA topic resampling: one invocation per word cell,
    theta rows joined in per cell (the data-sized join that makes the
    word-based SimSQL LDA take 16 hours per iteration)."""

    name = "lda_word"
    output_columns = ("topic",)

    def __init__(self, rng: np.random.Generator, topics: int, vocabulary: int) -> None:
        self.rng = rng
        self.topics = topics
        self.vocabulary = vocabulary
        self._cache = _ModelCache()

    def _parse_phi(self, rows) -> np.ndarray:
        phi = np.zeros((self.topics, self.vocabulary))
        for t, w, p in rows:
            phi[int(t), int(w)] = p
        return phi

    def invoke(self, rng, params):
        phi = self._cache.get(params["phi"], lambda: self._parse_phi(params["phi"]))
        (word,), = self._require(params, "cell")
        theta = _rows_to_vector(self._require(params, "theta"))
        weights = lda.word_topic_weights(theta, phi, int(word))
        return [(int(Categorical(weights).sample(self.rng)),)]

    def invoke_batch(self, rng, grouped):
        """All word cells of one update in one stacked draw.

        Phi broadcasts (one parse); each cell's theta rows still join in
        per group — the data-sized join cost is unchanged — but the
        topic draws collapse into a single ``sample_categorical_rows``
        call over the stacked weight rows.
        """
        if not grouped:
            return []
        first = grouped[0][1]
        phi = self._cache.get(first["phi"], lambda: self._parse_phi(first["phi"]))
        weights = np.empty((len(grouped), self.topics))
        for i, (_, params) in enumerate(grouped):
            (word,), = self._require(params, "cell")
            theta = _rows_to_vector(self._require(params, "theta"))
            weights[i] = lda.word_topic_weights(theta, phi, int(word))
        draws = sample_categorical_rows(self.rng, weights)
        return [key + (int(t),) for (key, _), t in zip(grouped, draws)]

    def flops_per_invocation(self, params):
        return float(self.topics * 3)


class LDADocumentVG(VGFunction):
    """Document-based LDA resampling VG (paper Section 8.1).

    Grouped per document: ``doc`` rows (pos, word); ``theta`` rows
    (topic, p); broadcast ``phi`` rows (topic, word, p).  Emits the new
    topic assignment per word plus the document's new theta rows
    (flagged by row kind), all as tuples to be aggregated by SQL.
    """

    name = "lda_document"
    output_columns = ("kind", "a", "b", "value")

    def __init__(self, rng: np.random.Generator, topics: int, vocabulary: int,
                 alpha: float = lda.DEFAULT_ALPHA) -> None:
        self.rng = rng
        self.topics = topics
        self.vocabulary = vocabulary
        self.alpha = alpha
        self._cache = _ModelCache()

    def _parse_phi(self, rows) -> np.ndarray:
        phi = np.zeros((self.topics, self.vocabulary))
        for t, w, p in rows:
            phi[int(t), int(w)] = p
        return phi

    def invoke(self, rng, params):
        phi = self._cache.get(params["phi"], lambda: self._parse_phi(params["phi"]))
        doc = sorted(self._require(params, "doc"))
        words = np.array([int(r[1]) for r in doc])
        theta = _rows_to_vector(self._require(params, "theta"))
        z, new_theta, _ = lda.resample_document(self.rng, words, theta, phi, self.alpha)
        out = [("z", int(pos), int(w), float(t))
               for pos, (w, t) in enumerate(zip(words, z))]
        out.extend(("theta", int(t), 0, float(p)) for t, p in enumerate(new_theta))
        return out

    def invoke_batch(self, rng, grouped):
        """Every document of one update through the batch LDA kernel.

        Phi broadcasts (one parse); the whole block's topic-weight
        matrix is computed upfront by ``lda.resample_documents_batch``
        while the per-document (z, theta) draws stay interleaved in
        group order — the same stream as the sequential invokes.
        """
        if not grouped:
            return []
        first = grouped[0][1]
        phi = self._cache.get(first["phi"], lambda: self._parse_phi(first["phi"]))
        values = []
        for _, params in grouped:
            doc = sorted(self._require(params, "doc"))
            words = np.array([int(r[1]) for r in doc])
            theta = _rows_to_vector(self._require(params, "theta"))
            values.append((words, theta))
        updated = lda.resample_documents_batch(self.rng, values, phi, self.alpha)
        out = []
        for (key, _), (words, _), (z, new_theta) in zip(grouped, values, updated):
            out.extend(key + ("z", int(pos), int(w), float(t))
                       for pos, (w, t) in enumerate(zip(words, z)))
            out.extend(key + ("theta", int(t), 0, float(p))
                       for t, p in enumerate(new_theta))
        return out

    def flops_per_invocation(self, params):
        return float(len(params.get("doc", ())) * self.topics * 4)


class GMMSuperVertexVG(VGFunction):
    """Super-vertex GMM VG with in-function pre-aggregation (Section 5.6:
    "a similar tactic was used to make the SimSQL GMM super vertex
    simulation the fastest of all of the platforms").

    Grouped per super vertex: ``block`` rows (row_id, <point blob>);
    model tables broadcast.  Emits one pre-aggregated statistics row per
    non-empty cluster: (clus_id, n, dim_id?, ...) — flattened as
    (clus_id, stat_kind, i, j, value) tuples, already tiny.
    """

    name = "gmm_super_vertex"
    output_columns = ("clus_id", "stat", "i", "j", "value")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._cache = _ModelCache()

    def invoke(self, rng, params):
        state = self._cache.get(
            params["means"],
            lambda: parse_gmm_model(params["means"], params["covas"], params["probs"]),
        )
        block_rows = self._require(params, "block")
        points = np.vstack([blob for _, blob in block_rows])
        labels = sample_categorical_rows(
            self.rng, gmm.membership_weights(points, state)
        )
        stats = gmm.sufficient_statistics(points, labels, state)
        out = []
        for k in range(state.clusters):
            if stats.counts[k] == 0:
                continue
            out.append((k, "n", 0, 0, float(stats.counts[k])))
            out.extend((k, "sum", i, 0, float(v)) for i, v in enumerate(stats.sums[k]))
            out.extend(
                (k, "scatter", i, j, float(stats.scatters[k][i, j]))
                for i in range(points.shape[1]) for j in range(points.shape[1])
            )
        return out

    def invoke_batch(self, rng, grouped):
        """Every super vertex's block in one stacked membership draw.

        The per-block weight matrices concatenate and resolve through a
        single ``sample_categorical_rows`` call (the merged draw equals
        the sequential per-block draws bitwise); sufficient statistics
        then aggregate per block as in the scalar path.  Declines above
        ``ROW_STABLE_MAX_DIM``, where the triangular solve inside the
        stacked density is no longer row-decomposable.
        """
        if not grouped:
            return []
        first = grouped[0][1]
        state = self._cache.get(
            first["means"],
            lambda: parse_gmm_model(first["means"], first["covas"], first["probs"]),
        )
        blocks = [
            np.vstack([blob for _, blob in self._require(params, "block")])
            for _, params in grouped
        ]
        if blocks[0].shape[1] > ROW_STABLE_MAX_DIM:
            return None
        stacked = np.vstack(blocks)
        labels = sample_categorical_rows(
            self.rng, gmm.membership_weights(stacked, state)
        )
        out = []
        offset = 0
        for (key, _), points in zip(grouped, blocks):
            block_labels = labels[offset:offset + len(points)]
            offset += len(points)
            stats = gmm.sufficient_statistics(points, block_labels, state)
            for k in range(state.clusters):
                if stats.counts[k] == 0:
                    continue
                out.append(key + (k, "n", 0, 0, float(stats.counts[k])))
                out.extend(key + (k, "sum", i, 0, float(v))
                           for i, v in enumerate(stats.sums[k]))
                out.extend(
                    key + (k, "scatter", i, j, float(stats.scatters[k][i, j]))
                    for i in range(points.shape[1]) for j in range(points.shape[1])
                )
        return out

    def flops_per_invocation(self, params):
        block = params.get("block", ())
        n = sum(len(blob) for _, blob in block) if block else 1
        return float(n * 200)


class ImputationVG(VGFunction):
    """Per-point imputation + membership + statistics VG (Section 9).

    Grouped per data point: ``point`` rows (dim_id, value, censored);
    model broadcast.  Emits the completed coordinates and the chosen
    cluster, as tuples.
    """

    name = "gaussian_impute"
    output_columns = ("kind", "i", "value")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._cache = _ModelCache()

    def invoke(self, rng, params):
        state = self._cache.get(
            params["means"],
            lambda: parse_gmm_model(params["means"], params["covas"], params["probs"]),
        )
        rows = sorted(self._require(params, "point"))
        x = np.array([r[1] for r in rows])
        mask = np.array([bool(r[2]) for r in rows])
        weights = marginal_membership_weights(x[None, :], mask[None, :], state)[0]
        k = int(Categorical(weights).sample(self.rng))
        completed = impute_point(self.rng, x, mask, state.means[k],
                                 state.covariances[k])
        out = [("x", i, float(v)) for i, v in enumerate(completed)]
        out.append(("c", k, 1.0))
        return out

    def invoke_batch(self, rng, grouped):
        """All points of one imputation sweep, weights bulk-computed.

        The per-point draw pairs (membership, then conditional-normal
        impute) must stay interleaved in point order to preserve the
        stream, but the marginal membership weights depend only on last
        sweep's state, so they batch through one pattern-grouped
        ``marginal_membership_weights`` call; the conditional-normal
        factorizations hoist per (cluster, censoring-pattern) pair
        exactly as in ``impute_points_batch``.  Declines above
        ``ROW_STABLE_MAX_DIM`` where the stacked density is no longer
        row-decomposable.
        """
        if not grouped:
            return []
        first = grouped[0][1]
        if len(self._require(first, "point")) > ROW_STABLE_MAX_DIM:
            return None
        state = self._cache.get(
            first["means"],
            lambda: parse_gmm_model(first["means"], first["covas"], first["probs"]),
        )
        points = []
        masks = []
        for _, params in grouped:
            rows = sorted(self._require(params, "point"))
            points.append([r[1] for r in rows])
            masks.append([bool(r[2]) for r in rows])
        points_arr = np.array(points, dtype=float)
        masks_arr = np.array(masks, dtype=bool)
        weights = marginal_membership_weights(points_arr, masks_arr, state)
        dists: dict[int, MultivariateNormal] = {}
        conditioners: dict[tuple[int, bytes], object] = {}
        out = []
        for j, (key, _) in enumerate(grouped):
            k = int(Categorical(weights[j]).sample(self.rng))
            x = points_arr[j]
            row_mask = masks_arr[j]
            if not row_mask.any():
                completed = x
            else:
                dist = dists.get(k)
                if dist is None:
                    dist = dists[k] = MultivariateNormal(state.means[k],
                                                         state.covariances[k])
                if row_mask.all():
                    completed = dist.sample(self.rng)
                else:
                    cache_key = (k, row_mask.tobytes())
                    conditional = conditioners.get(cache_key)
                    if conditional is None:
                        conditional = conditioners[cache_key] = dist.conditioner(
                            np.flatnonzero(~row_mask))
                    completed = x.copy()
                    completed[row_mask] = conditional.sample_given(
                        self.rng, x[~row_mask])
            out.extend(key + ("x", i, float(v)) for i, v in enumerate(completed))
            out.append(key + ("c", k, 1.0))
        return out

    def flops_per_invocation(self, params):
        d = len(params.get("point", (1,)))
        return float(10 * d**3)
