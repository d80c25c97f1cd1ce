"""Token pipeline: vocabulary, padding, embeddings, synthetic corpora,
and a tab-separated file loader.

Index conventions used everywhere: index 0 is padding (its embedding
row is all-zero and never trained), index 1 is out-of-vocabulary, real
tokens start at 2. Sequences are pre-padded / pre-truncated so the
informative tail of a long text is what the final hidden state sees.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .numerics import init_matrix

PAD_INDEX = 0
OOV_INDEX = 1

SYNTH_KINDS = ("keyword_count", "first_token_class", "majority_vote")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


@dataclass(eq=False)
class EmbeddingTable:
    """Dense token embeddings, one row per vocabulary index.

    Row 0 is the padding row: all-zero at construction and excluded
    from gradient scatter, so it stays zero for the life of the model.
    """

    E: np.ndarray
    trainable: bool = True

    def __post_init__(self):
        if self.E.ndim != 2 or self.E.shape[0] < 2:
            raise ValueError(f"embedding table must be (vocab>=2, dim), got {self.E.shape}")
        if np.any(self.E[PAD_INDEX] != 0.0):
            raise ValueError("embedding row 0 is the padding row and must be zero")

    @property
    def vocab_size(self) -> int:
        return self.E.shape[0]


def init_embedding(rng: np.random.Generator, vocab_size: int, dim: int,
                   trainable: bool = True) -> EmbeddingTable:
    E = init_matrix(rng, vocab_size, dim)
    E[PAD_INDEX] = 0.0
    return EmbeddingTable(E=E, trainable=trainable)


@dataclass(eq=False)
class SequenceBatch:
    """Fixed-length token sequences with integer labels.

    tokens is (B, T) int64, labels is (B,) int64. n_classes counts the
    distinct label values the task can emit (2 for binary tasks).
    """

    tokens: np.ndarray
    labels: np.ndarray
    n_classes: int = 2

    def __post_init__(self):
        if self.tokens.ndim != 2 or self.labels.shape != (self.tokens.shape[0],):
            raise ValueError(
                f"batch shapes disagree: tokens {self.tokens.shape}, labels {self.labels.shape}")
        if self.tokens.dtype.kind not in "iu":  # a float fails to index, a bool masks
            raise ValueError(f"tokens must be integers, got dtype {self.tokens.dtype}")

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @property
    def T(self) -> int:
        return self.tokens.shape[1]

    def subset(self, idx) -> "SequenceBatch":
        return SequenceBatch(tokens=self.tokens[idx], labels=self.labels[idx],
                             n_classes=self.n_classes)


def build_vocab(corpus, max_words: int) -> dict[str, int]:
    """Frequency-ranked vocabulary over a list of token lists.

    Keeps the max_words - 2 most frequent tokens (ties broken
    lexicographically) and assigns indices from 2 up; 0 and 1 stay
    reserved for padding and out-of-vocabulary.
    """
    if max_words < 3:
        raise ValueError(f"max_words must be >= 3, got {max_words}")
    if len(corpus) == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for doc in corpus:
        counts.update(doc)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {tok: i + 2 for i, (tok, _) in enumerate(ranked[: max_words - 2])}


def encode_tokens(vocab: dict[str, int], tokens) -> list[int]:
    """Map tokens to indices, unknown tokens to OOV_INDEX."""
    return [vocab.get(t, OOV_INDEX) for t in tokens]


def pad_or_truncate(seq, T: int) -> list[int]:
    """Force a sequence to length exactly T: left-pad with zeros when
    short, keep the last T entries when long."""
    if T < 1:
        raise ValueError(f"target length must be >= 1, got {T}")
    seq = list(seq)
    if len(seq) >= T:
        return seq[len(seq) - T:]
    return [PAD_INDEX] * (T - len(seq)) + seq


def check_tokens(emb: EmbeddingTable, tokens: np.ndarray):
    """Raise ValueError unless every token index is a row of the table."""
    if tokens.size and (tokens.min() < 0 or tokens.max() >= emb.vocab_size):
        raise ValueError(
            f"token index out of range [0, {emb.vocab_size}): "
            f"min={tokens.min()} max={tokens.max()}")


def embed_lookup(emb: EmbeddingTable, tokens: np.ndarray) -> np.ndarray:
    """Rows of the embedding table for an array of token indices,
    tokens.shape + (dim,): (T, B, dim) for the (T, B) tokens of B samples."""
    tokens = np.asarray(tokens)
    check_tokens(emb, tokens)
    return emb.E[tokens]


def synth_label(kind: str, tokens, n_classes: int) -> int:
    """The deterministic labeling rule each synthetic task obeys.

    keyword_count: 1 iff token 2 occurs strictly more often than token 3.
    first_token_class: the class marker at the first position, token - 2.
    majority_vote: the most frequent of the first n_classes markers,
    lowest marker winning ties.
    """
    tokens = list(tokens)
    if kind == "keyword_count":
        return int(tokens.count(2) > tokens.count(3))
    if kind == "first_token_class":
        cls = tokens[0] - 2
        if not 0 <= cls < n_classes:
            raise ValueError(f"first token {tokens[0]} is not a class marker")
        return cls
    if kind == "majority_vote":
        counts = [tokens.count(2 + c) for c in range(n_classes)]
        return int(np.argmax(counts))
    raise ValueError(f"unknown synthetic task {kind!r}")


def _synth_one(kind: str, T: int, vocab_size: int, label: int, n_classes: int,
               rng: np.random.Generator) -> np.ndarray:
    """Generate a single sequence whose synth_label equals label."""
    fill_lo = 2 + (2 if kind == "keyword_count" else n_classes)
    if vocab_size > fill_lo:
        filler = rng.integers(fill_lo, vocab_size, size=T)
    else:
        filler = np.full(T, PAD_INDEX)  # degenerate vocab: pad as filler
    seq = filler.astype(np.int64)

    if kind == "keyword_count":
        hi = max(1, min(8, T // 4))
        k_main = int(rng.integers(max(1, hi // 2), hi + 1))
        k_off = int(rng.integers(0, min(2, k_main - 1) + 1))
        pos = rng.permutation(T)
        main_tok, off_tok = (2, 3) if label == 1 else (3, 2)
        seq[pos[:k_main]] = main_tok
        seq[pos[k_main:k_main + k_off]] = off_tok
    elif kind == "first_token_class":
        seq[0] = 2 + label
    elif kind == "majority_vote":
        w_hi = max(2, min(5, T // (2 * n_classes - 1) + 1))
        w = int(rng.integers(2, w_hi + 1))
        counts = [w if c == label else 0 for c in range(n_classes)]
        budget = T - w
        for c in range(n_classes):
            if c == label:
                continue
            cap = min(w - 1, budget // max(1, n_classes - 1))
            if cap > 0:
                counts[c] = int(rng.integers(0, cap + 1))
                budget -= counts[c]
        pos = rng.permutation(T)
        at = 0
        for c in range(n_classes):
            seq[pos[at:at + counts[c]]] = 2 + c
            at += counts[c]
    return seq


def synth_generate(kind: str, n_samples: int, T: int, vocab_size: int,
                   rng: np.random.Generator):
    """Deterministic synthetic corpus: (train, test) SequenceBatch pair.

    Labels are balanced to within one sample per class and the split is
    80/20, stratified per class so both sides stay balanced.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic task {kind!r}")
    if n_samples < 10:
        raise ValueError(f"need at least 10 samples, got {n_samples}")
    if T < 2:
        raise ValueError(f"need sequence length >= 2, got {T}")
    if vocab_size < 4:
        raise ValueError(f"need vocab_size >= 4, got {vocab_size}")

    if kind == "keyword_count":
        n_classes = 2
    elif kind == "first_token_class":
        n_classes = min(4, vocab_size - 2)
    else:
        n_classes = min(3, vocab_size - 2)

    per_class: list[list[np.ndarray]] = [[] for _ in range(n_classes)]
    for i in range(n_samples):
        label = i % n_classes
        per_class[label].append(_synth_one(kind, T, vocab_size, label, n_classes, rng))

    train_tok, train_lab, test_tok, test_lab = [], [], [], []
    for label, seqs in enumerate(per_class):
        cut = int(round(0.8 * len(seqs)))
        for s in seqs[:cut]:
            train_tok.append(s)
            train_lab.append(label)
        for s in seqs[cut:]:
            test_tok.append(s)
            test_lab.append(label)

    def finish(toks, labs):
        order = rng.permutation(len(toks))
        tokens = np.stack([toks[i] for i in order])
        labels = np.array([labs[i] for i in order], dtype=np.int64)
        return SequenceBatch(tokens=tokens, labels=labels, n_classes=n_classes)

    return finish(train_tok, train_lab), finish(test_tok, test_lab)


def tokenize_text(text: str) -> list[str]:
    """Lowercase, strip ASCII punctuation, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


def load_tsv_corpus(path) -> list[tuple[int, list[str]]]:
    """Read a label<TAB>text file into (label, tokens) pairs.

    CRLF and LF line endings are treated identically, and a leading
    UTF-8 byte-order mark is skipped. A line without a tab, or with a
    non-integer label, raises with its 1-based line number. Empty text
    yields an empty token list.
    """
    with open(path, encoding="utf-8-sig") as fh:
        raw = fh.read()
    corpus = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if "\t" not in line:
            raise ValueError(f"{path}: line {lineno}: expected label<TAB>text")
        label_str, text = line.split("\t", 1)
        try:
            label = int(label_str)
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: unknown label {label_str!r}") from None
        corpus.append((label, tokenize_text(text)))
    return corpus

