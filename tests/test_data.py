"""Data-path checks: vocabulary ranking, encoding, padding conventions,
synthetic task generation (determinism, balance, labeling rule, linear
separability), and the TSV loader."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

from slimrnn.data import (
    OOV_INDEX,
    PAD_INDEX,
    SYNTH_KINDS,
    EmbeddingTable,
    SequenceBatch,
    build_vocab,
    embed_lookup,
    encode_tokens,
    init_embedding,
    load_tsv_corpus,
    pad_or_truncate,
    synth_generate,
    synth_label,
    tokenize_text,
)
from slimrnn.numerics import make_rng


# --------------------------------------------------------------------------
# Vocabulary and encoding.
# --------------------------------------------------------------------------

def test_build_vocab_ranks_by_frequency_then_lexicographically():
    corpus = [["b", "a", "b"], ["a", "b", "c"]]
    assert build_vocab(corpus, max_words=10) == {"b": 2, "a": 3, "c": 4}
    # capacity 4 keeps only the two most frequent tokens
    assert build_vocab(corpus, max_words=4) == {"b": 2, "a": 3}
    # equal counts fall back to lexicographic order
    tied = [["z", "a"]]
    assert build_vocab(tied, max_words=10) == {"a": 2, "z": 3}


def test_build_vocab_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="max_words"):
        build_vocab([["a"]], max_words=2)
    with pytest.raises(ValueError, match="empty"):
        build_vocab([], max_words=10)


def test_encode_decode_round_trip_and_oov():
    vocab = {"cat": 2, "dog": 3}
    assert encode_tokens(vocab, ["cat", "emu", "dog"]) == [2, OOV_INDEX, 3]


def test_pad_or_truncate_conventions():
    assert pad_or_truncate([5, 6], 4) == [0, 0, 5, 6]       # left padding
    assert pad_or_truncate([5, 6, 7, 8, 9], 3) == [7, 8, 9]  # keeps the tail
    assert pad_or_truncate([5, 6, 7], 3) == [5, 6, 7]
    with pytest.raises(ValueError):
        pad_or_truncate([1], 0)


def test_pad_or_truncate_is_idempotent():
    rng = make_rng(900)
    for _ in range(50):
        T = int(rng.integers(1, 12))
        seq = list(rng.integers(0, 9, size=int(rng.integers(0, 20))))
        once = pad_or_truncate(seq, T)
        assert pad_or_truncate(once, T) == once
        assert len(once) == T


def test_tokenize_text_lowers_and_strips_punctuation():
    assert tokenize_text("Great movie!") == ["great", "movie"]
    assert tokenize_text("  A, B; c... ") == ["a", "b", "c"]
    assert tokenize_text("") == []


# --------------------------------------------------------------------------
# Embedding table.
# --------------------------------------------------------------------------

def test_embedding_row_zero_is_the_zero_padding_row():
    emb = init_embedding(make_rng(31), 6, 3)
    npt.assert_array_equal(emb.E[PAD_INDEX], np.zeros(3))
    with pytest.raises(ValueError, match="padding row"):
        EmbeddingTable(E=np.ones((4, 2)))


@pytest.mark.parametrize("shape", [(5,), (1, 3), (2, 3, 1)])
def test_embedding_table_must_be_a_matrix_of_two_rows_or_more(shape):
    with pytest.raises(ValueError) as info:
        EmbeddingTable(E=np.zeros(shape))
    assert str(info.value) == f"embedding table must be (vocab>=2, dim), got {shape}"


def test_embed_lookup_gathers_rows_and_checks_range():
    emb = init_embedding(make_rng(32), 6, 3)
    tokens = np.array([0, 2, 5, 2])
    got = embed_lookup(emb, tokens)
    npt.assert_array_equal(got, emb.E[tokens])
    npt.assert_array_equal(got[0], np.zeros(3))
    with pytest.raises(ValueError, match="out of range"):
        embed_lookup(emb, np.array([6]))
    with pytest.raises(ValueError, match="out of range"):
        embed_lookup(emb, np.array([-1]))


def test_init_embedding_deterministic():
    a = init_embedding(make_rng(33), 5, 4)
    b = init_embedding(make_rng(33), 5, 4)
    npt.assert_array_equal(a.E, b.E)
    assert a.trainable


# --------------------------------------------------------------------------
# Synthetic tasks.
# --------------------------------------------------------------------------

def test_synth_label_rules():
    assert synth_label("keyword_count", [2, 2, 3, 9], 2) == 1
    assert synth_label("keyword_count", [2, 3, 3, 9], 2) == 0
    assert synth_label("keyword_count", [9, 9], 2) == 0  # tie at zero
    assert synth_label("first_token_class", [4, 9, 9], 4) == 2
    assert synth_label("majority_vote", [3, 3, 2, 9], 3) == 1
    assert synth_label("majority_vote", [2, 3, 9, 9], 3) == 0  # low tie wins
    with pytest.raises(ValueError):
        synth_label("nonsense", [2], 2)


@pytest.mark.parametrize("first", [1, 6])
def test_first_token_class_needs_a_class_marker_first(first):
    with pytest.raises(ValueError) as info:
        synth_label("first_token_class", [first, 2, 3], 4)
    assert str(info.value) == f"first token {first} is not a class marker"


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_synth_generate_deterministic_per_seed(kind):
    a_train, a_test = synth_generate(kind, 60, 12, 20, make_rng(5))
    b_train, b_test = synth_generate(kind, 60, 12, 20, make_rng(5))
    npt.assert_array_equal(a_train.tokens, b_train.tokens)
    npt.assert_array_equal(a_train.labels, b_train.labels)
    npt.assert_array_equal(a_test.tokens, b_test.tokens)
    npt.assert_array_equal(a_test.labels, b_test.labels)
    c_train, _ = synth_generate(kind, 60, 12, 20, make_rng(6))
    assert np.any(a_train.tokens != c_train.tokens)


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_synth_generate_split_sizes_balance_and_labels(kind):
    train, test = synth_generate(kind, 100, 10, 24, make_rng(8))
    # 80/20 split, stratified: each class rounds its own cut point
    assert len(train) + len(test) == 100
    assert abs(len(train) - 80) <= train.n_classes
    assert train.T == test.T == 10
    for split in (train, test):
        # class balance within one sample per class
        counts = np.bincount(split.labels, minlength=split.n_classes)
        assert counts.max() - counts.min() <= 1
        # every sequence obeys the labeling rule it was generated for
        for row, lab in zip(split.tokens, split.labels):
            assert synth_label(kind, row, split.n_classes) == lab


def test_synth_generate_train_test_disjoint():
    train, test = synth_generate("keyword_count", 200, 40, 50, make_rng(9))
    train_rows = {row.tobytes() for row in train.tokens}
    assert all(row.tobytes() not in train_rows for row in test.tokens)


def test_synth_generate_rejects_degenerate_requests():
    with pytest.raises(ValueError):
        synth_generate("keyword_count", 5, 10, 20, make_rng(1))
    with pytest.raises(ValueError):
        synth_generate("keyword_count", 20, 1, 20, make_rng(1))
    with pytest.raises(ValueError):
        synth_generate("keyword_count", 20, 10, 3, make_rng(1))
    with pytest.raises(ValueError):
        synth_generate("mystery", 20, 10, 20, make_rng(1))


def test_keyword_count_is_linearly_separable_by_bag_of_words():
    """A logistic regression over token-count vectors must ace the task;
    if it cannot, the recurrent nets have no chance and the task is
    miscalibrated."""
    vocab = 50
    train, test = synth_generate("keyword_count", 400, 40, vocab, make_rng(10))

    def counts(batch):
        X = np.zeros((len(batch), vocab))
        for i, row in enumerate(batch.tokens):
            X[i] = np.bincount(row, minlength=vocab)
        return X

    Xtr, ytr = counts(train), train.labels.astype(float)
    Xte, yte = counts(test), test.labels.astype(float)
    w = np.zeros(vocab)
    b = 0.0
    for _ in range(300):  # plain batch gradient descent
        p = expit(Xtr @ w + b)
        w -= 0.1 * Xtr.T @ (p - ytr) / len(ytr)
        b -= 0.1 * float(np.mean(p - ytr))
    acc = float(np.mean((expit(Xte @ w + b) >= 0.5) == (yte == 1.0)))
    assert acc >= 0.99, f"bag-of-words oracle accuracy {acc}"


def test_sequence_batch_validation_and_subset():
    batch = SequenceBatch(tokens=np.arange(12).reshape(4, 3),
                          labels=np.array([0, 1, 0, 1]))
    assert len(batch) == 4 and batch.T == 3
    sub = batch.subset(np.array([2, 0]))
    npt.assert_array_equal(sub.tokens, batch.tokens[[2, 0]])
    npt.assert_array_equal(sub.labels, [0, 0])
    with pytest.raises(ValueError):
        SequenceBatch(tokens=np.zeros((4, 3), dtype=np.int64),
                      labels=np.zeros(3, dtype=np.int64))
    # a float token fails to index the embedding, and a bool array would
    # index its rows as a mask
    for dtype in (np.float64, np.bool_):
        with pytest.raises(ValueError, match=f"tokens must be integers, got dtype {np.dtype(dtype)}"):
            SequenceBatch(tokens=np.ones((4, 3), dtype=dtype), labels=batch.labels)
    narrow = SequenceBatch(tokens=batch.tokens.astype(np.int32), labels=batch.labels)
    npt.assert_array_equal(narrow.subset(np.array([2, 0])).tokens, sub.tokens)


# --------------------------------------------------------------------------
# TSV corpus loader.
# --------------------------------------------------------------------------

def test_load_tsv_corpus_basic(tmp_path):
    f = tmp_path / "c.tsv"
    f.write_text("1\tGreat movie!\n0\tAwful. Just awful.\n", encoding="utf-8")
    assert load_tsv_corpus(f) == [(1, ["great", "movie"]),
                                  (0, ["awful", "just", "awful"])]


def test_load_tsv_corpus_crlf_equals_lf(tmp_path):
    lf = tmp_path / "lf.tsv"
    crlf = tmp_path / "crlf.tsv"
    lf.write_bytes(b"1\tgood\n0\tbad\n")
    crlf.write_bytes(b"1\tgood\r\n0\tbad\r\n")
    assert load_tsv_corpus(lf) == load_tsv_corpus(crlf)


def test_load_tsv_corpus_empty_text_allowed(tmp_path):
    f = tmp_path / "e.tsv"
    f.write_text("1\t\n", encoding="utf-8")
    assert load_tsv_corpus(f) == [(1, [])]


def test_load_tsv_corpus_errors_carry_line_numbers(tmp_path):
    f = tmp_path / "bad.tsv"
    f.write_text("1\tfine\nno tab here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_tsv_corpus(f)
    f.write_text("1\tfine\nx\ttext\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2.*unknown label"):
        load_tsv_corpus(f)

