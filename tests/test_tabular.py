import dataclasses
import hashlib
import os
import stat
import time
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dispdecomp
from dispdecomp import DataError, Dataset, RoleSpec, decompose_dic, load_csv, tabular
from dispdecomp.tabular import _fast_table, _load_csv_reference

from conftest import build_dataset, write_dataset_csv


def minimal_roles(**overrides):
    kwargs = dict(group="R", outcome="Y", mediator="M")
    kwargs.update(overrides)
    return RoleSpec(**kwargs)


class TestRoleSpec:
    def test_all_roles_order(self):
        roles = RoleSpec(
            group="R", outcome="Y", mediator="M", baseline=("C",), intermediate=("X1", "X2")
        )
        assert roles.all_roles() == ("R", "Y", "M", "C", "X1", "X2")

    def test_covariates_are_intermediate_then_baseline(self):
        roles = RoleSpec(
            group="R", outcome="Y", mediator="M", baseline=("C",), intermediate=("X1",)
        )
        assert roles.covariates == ("X1", "C")

    def test_list_inputs_coerced_to_tuples(self):
        roles = RoleSpec(group="R", outcome="Y", mediator="M", baseline=["C"])
        assert roles.baseline == ("C",)

    def test_empty_name_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            RoleSpec(group="", outcome="Y", mediator="M")

    def test_duplicate_role_rejected(self):
        with pytest.raises(DataError, match="more than one role"):
            RoleSpec(group="R", outcome="Y", mediator="Y")

    def test_covariate_overlapping_core_role_rejected(self):
        with pytest.raises(DataError, match="'M'"):
            RoleSpec(group="R", outcome="Y", mediator="M", intermediate=("M",))


class TestDataset:
    def test_columns_read_only_float64(self):
        data = build_dataset({"R": [0, 1], "M": [1.0, 2.0], "Y": [3, 4]})
        assert data.n == 2
        for arr in data.columns.values():
            assert arr.dtype == np.float64
            assert not arr.flags.writeable

    def test_no_columns_rejected(self):
        with pytest.raises(DataError, match="no columns"):
            Dataset({}, minimal_roles())

    def test_no_rows_rejected(self):
        with pytest.raises(DataError, match="no rows"):
            build_dataset({"R": [], "M": [], "Y": []})

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length"):
            build_dataset({"R": [0, 1], "M": [1.0], "Y": [3, 4]})

    def test_two_dimensional_column_rejected(self):
        with pytest.raises(DataError, match="one-dimensional"):
            Dataset({"R": np.zeros((2, 2)), "M": np.ones(2), "Y": np.ones(2)}, minimal_roles())

    def test_non_finite_rejected_with_column_name(self):
        with pytest.raises(DataError, match="'M'"):
            build_dataset({"R": [0, 1], "M": [np.nan, 2.0], "Y": [3, 4]})
        with pytest.raises(DataError, match="'Y'"):
            build_dataset({"R": [0, 1], "M": [1.0, 2.0], "Y": [np.inf, 4]})

    def test_missing_role_column_rejected(self):
        with pytest.raises(DataError, match="role column 'M'"):
            Dataset({"R": np.array([0.0, 1.0]), "Y": np.array([1.0, 2.0])}, minimal_roles())

    def test_non_binary_group_rejected(self):
        with pytest.raises(DataError, match="only 0 and 1"):
            build_dataset({"R": [0, 2], "M": [1, 2], "Y": [3, 4]})

    def test_single_group_rejected(self):
        with pytest.raises(DataError, match="group 1 has no rows"):
            build_dataset({"R": [0, 0], "M": [1, 2], "Y": [3, 4]})
        with pytest.raises(DataError, match="group 0 has no rows"):
            build_dataset({"R": [1, 1], "M": [1, 2], "Y": [3, 4]})

    def test_group_masks_and_sizes(self):
        data = build_dataset({"R": [0, 1, 1], "M": [1, 2, 3], "Y": [4, 5, 6]})
        npt.assert_array_equal(data.group_mask(1), [False, True, True])

    def test_unknown_column_lookup(self):
        data = build_dataset({"R": [0, 1], "M": [1, 2], "Y": [3, 4]})
        with pytest.raises(DataError, match="no column named 'Q'"):
            data.column("Q")

    def test_take_resamples_rows(self):
        data = build_dataset({"R": [0, 1, 1], "M": [1, 2, 3], "Y": [4, 5, 6]})
        sub = data.take(np.array([2, 0]))
        npt.assert_array_equal(sub.column("M"), [3.0, 1.0])
        assert sub.roles == data.roles

    def test_take_revalidates(self):
        data = build_dataset({"R": [0, 1, 1], "M": [1, 2, 3], "Y": [4, 5, 6]})
        with pytest.raises(DataError, match="group 0 has no rows"):
            data.take(np.array([1, 2]))

    def test_take_that_drops_group_1_is_rejected(self):
        data = build_dataset({"R": [0, 1, 1], "M": [1, 2, 3], "Y": [4, 5, 6]})
        with pytest.raises(DataError, match="group 1 has no rows"):
            data.take(np.array([0, 0]))

    def test_take_equals_a_dataset_of_the_indexed_columns(self):
        data = build_dataset({"R": [0, 1, 1, 0], "M": [1, 2, 3, 4], "Y": [4, 5, 6, 7]})
        decompose_dic(data)
        idx = np.array([3, 3, 1, 2, 0])
        taken = data.take(idx)
        built = Dataset({k: v[idx] for k, v in data.columns.items()}, data.roles)
        assert taken.roles == built.roles
        assert (taken.n, taken._fits) == (built.n, {})
        assert list(taken.columns) == list(built.columns)
        for name, col in taken.columns.items():
            assert col.dtype == np.float64 and col.flags.c_contiguous
            assert not col.flags.writeable
            npt.assert_array_equal(col, built.column(name))
        for g in (0, 1):
            npt.assert_array_equal(taken._rows[g], built._rows[g])

    @given(
        st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=40).filter(
            lambda g: 0.0 in g and 1.0 in g
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_group_rows_are_the_read_only_group_masks(self, groups, seed):
        rng = np.random.default_rng(seed)
        r = np.array(groups)
        data = build_dataset({"R": r, "M": rng.normal(size=r.size), "Y": rng.normal(size=r.size)})
        idx0, idx1 = (np.flatnonzero(r == g) for g in (0.0, 1.0))
        # A within-group resample, as the bootstrap draws it.
        resampled = data.take(
            np.concatenate([rng.choice(idx0, idx0.size), rng.choice(idx1, idx1.size)])
        )
        for table in (data, resampled):
            for g in (0, 1):
                rows = table._rows[g]
                npt.assert_array_equal(rows, np.flatnonzero(table.group_mask(g)))
                assert rows.dtype == np.intp
                assert not rows.flags.writeable
        npt.assert_array_equal(resampled._rows[1], np.arange(idx0.size, r.size))

    def test_group_rows_are_outside_init_repr_and_eq(self):
        split = {f.name: f for f in dataclasses.fields(Dataset)}["_rows"]
        assert not split.init and not split.repr and not split.compare


class TestLoadCsv:
    def write(self, tmp_path, text, name="d.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_round_trip_values(self, tmp_path):
        path = self.write(tmp_path, "R,M,Y\n0,1.5,2\n1,2.5,3\n")
        data = load_csv(path, minimal_roles())
        npt.assert_array_equal(data.column("M"), [1.5, 2.5])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "absent.csv"), minimal_roles())

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="is empty"):
            load_csv(self.write(tmp_path, ""), minimal_roles())

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(self.write(tmp_path, "R,M,Y\n"), minimal_roles())

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataError, match="duplicate column 'M'"):
            load_csv(self.write(tmp_path, "R,M,M\n0,1,2\n"), minimal_roles())

    def test_missing_role_column_names_offender(self, tmp_path):
        with pytest.raises(DataError, match="role column 'Y'"):
            load_csv(self.write(tmp_path, "R,M,Z\n0,1,2\n"), minimal_roles())

    def test_ragged_row_reports_file_row_number(self, tmp_path):
        with pytest.raises(DataError, match="row 3"):
            load_csv(self.write(tmp_path, "R,M,Y\n0,1,2\n1,2\n"), minimal_roles())

    def test_empty_cell_reports_row_and_column(self, tmp_path):
        with pytest.raises(DataError, match=r"row 2, column 'M': empty cell"):
            load_csv(self.write(tmp_path, "R,M,Y\n0,,2\n1,2,3\n"), minimal_roles())

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(DataError, match=r"row 3, column 'Y': non-numeric value 'abc'"):
            load_csv(self.write(tmp_path, "R,M,Y\n0,1,2\n1,2,abc\n"), minimal_roles())

    def test_bad_group_value_is_printed_as_a_plain_number(self, tmp_path):
        path = self.write(tmp_path, "R,M,Y\n0,1,2\n2,3,4\n1,5,6\n")
        with pytest.raises(DataError) as info:
            load_csv(path, minimal_roles())
        assert str(info.value) == "group column 'R' must contain only 0 and 1, found 2.0"

    def test_non_finite_cell(self, tmp_path):
        with pytest.raises(DataError, match=r"row 2, column 'Y': non-finite value"):
            load_csv(self.write(tmp_path, "R,M,Y\n0,1,inf\n1,2,3\n"), minimal_roles())

    @pytest.mark.parametrize("bad_line", [0, 1, 2500], ids=["header", "first-row", "late-row"])
    def test_bytes_that_are_not_utf8_are_a_data_error(self, tmp_path, bad_line):
        # A Latin-1 e-acute. Line 2500 lies past the first block the reader
        # decodes, so the one-pass parser meets it first and then the
        # cell-by-cell parser.
        lines = ["R,M,Y"] + [f"{i % 2},{i % 7}.5,{i % 5}" for i in range(3000)]
        lines[bad_line] = lines[bad_line].replace(",", "\xe9,", 1)
        path = tmp_path / "latin1.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        with pytest.raises(DataError) as info:
            load_csv(str(path), minimal_roles())
        assert str(info.value) == f"cannot read {str(path)!r}: not valid UTF-8 (byte 0xe9: invalid continuation byte)"

    def test_whitespace_tolerated(self, tmp_path):
        path = self.write(tmp_path, " R , M , Y \n 0 , 1 , 2 \n 1 , 3 , 4 \n")
        data = load_csv(path, minimal_roles())
        npt.assert_array_equal(data.column("M"), [1.0, 3.0])


def _outcome(loader, path, roles):
    """What a loader makes of a file: column bits by name, or the error text."""
    try:
        data = loader(path, roles)
    except DataError as exc:
        return ("error", str(exc))
    return ("data", {name: col.view(np.uint64).tolist() for name, col in data.columns.items()})


class TestLoadCsvMatchesReference:
    """load_csv gives the reference parser's column bits or error text."""

    def check(self, tmp_path, text, roles=None):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        roles = roles or minimal_roles()
        fast = _outcome(load_csv, str(path), roles)
        assert fast == _outcome(_load_csv_reference, str(path), roles)
        return fast

    @pytest.mark.parametrize(
        "text, error",
        [
            ("R,M,Y\n0,1,2\n\n1,2,3\n", "row 3: expected 3 cells, found 0"),
            ("R,M,Y\n0,1,2\n1,2,3\n\n\n", "row 4: expected 3 cells, found 0"),
            ("R,M,Y\n0,1,2\n  \t \n1,2,3\n", "row 3: expected 3 cells, found 1"),
            ("R,M,Y\n# note\n0,1,2\n1,2,3\n", "row 2: expected 3 cells, found 1"),
            ("R,M,Y\n0,1#,2\n1,2,3\n", "row 2, column 'M': non-numeric value '1#'"),
            ("R,M,Y\n0,1,nan\n1,2,3\n", "row 2, column 'Y': non-finite value 'nan'"),
            ("R,M,Y\n0,1,2\n1,inf,3\n", "row 3, column 'M': non-finite value 'inf'"),
            ("R,M,Y\n0,Infinity,2\n1,2,3\n", "row 2, column 'M': non-finite value 'Infinity'"),
            ("R,M,Y\n0,1,2\n1,2,-inf\n", "row 3, column 'Y': non-finite value '-inf'"),
            ("R,M,Y\n0,0x10,2\n1,2,3\n", "row 2, column 'M': non-numeric value '0x10'"),
            ("R,M,Y\n0,1,2,\n1,2,3,\n", "row 2: expected 3 cells, found 4"),
            ("R,M,Y\n0,1,2\n1,2\n", "row 3: expected 3 cells, found 2"),
            ("R,M,Y\n0,1,2\n1,,3\n", "row 3, column 'M': empty cell"),
            ("R,M,Y\n0,1,2\n", "group 1 has no rows"),
            ("R,M,Y\n", "has a header but no data rows"),
            ("R,M,Y\n\n", "row 2: expected 3 cells, found 0"),
        ],
    )
    def test_error_cases(self, tmp_path, text, error):
        kind, message = self.check(tmp_path, text)
        assert kind == "error"
        assert error in message

    @pytest.mark.parametrize(
        "text",
        [
            '"R","M","Y"\n"0","1.5",2\n1," 2.5 ","3"\n',
            "R,M,Y\r\n0,1.5,2\r\n1,2.5,3\r\n",
            "R,M,Y\r0,1.5,2\r1,2.5,3\r",
            "R,M,Y\n0,-0.0,2\n1,2.5,-0.0",
            "R,M,Y\n0,1e-320,2.5e+300\n1,.5,5.\n",
        ],
    )
    def test_loadable_cases(self, tmp_path, text):
        kind, columns = self.check(tmp_path, text)
        assert kind == "data"
        assert len(columns["M"]) == 2

    @pytest.mark.parametrize(
        "text, error",
        [
            ("R,M,Y\n0,1.5,2\n1,2.5,3\n", None),
            ('"R",M,Y\n0,1.5,2\n1,2.5,3\n', None),
            ("R,M,Y\n0,1.5,2\n1,2.5,3\n\n", "row 4: expected 3 cells, found 0"),
            ("R,M,Y\n,1.5,2\n1,2.5,3\n", "row 2, column 'R': empty cell"),
        ],
        ids=["fast", "quoted-header", "reference", "first-column-error"],
    )
    def test_a_utf8_byte_order_mark_reads_as_without_it(self, tmp_path, text, error):
        # Spreadsheets write "CSV UTF-8" with a byte-order mark before the header.
        plain = self.check(tmp_path, text)
        assert self.check(tmp_path, "\ufeff" + text) == plain
        assert plain[0] == ("data" if error is None else "error")
        if error is not None:
            assert error in plain[1]

    def test_underscore_digits_parse_as_float_does(self, tmp_path):
        _, columns = self.check(tmp_path, "R,M,Y\n0,1_0,2\n1,2,3\n")
        assert columns["M"][0] == np.float64(10.0).view(np.uint64)

    def test_more_rows_than_one_loadtxt_chunk(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 50_003
        values = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
        lines = [f"{i % 2},{a!r},{b!r}" for i, (a, b) in enumerate(values.tolist())]
        kind, columns = self.check(tmp_path, "R,M,Y\n" + "\n".join(lines) + "\n")
        assert kind == "data"
        assert columns["M"] == values[:, 0].view(np.uint64).tolist()

    @given(
        rows=st.lists(
            st.lists(
                st.sampled_from(
                    ["0", "1", "-0.0", " 2.5 ", "1e3", '"4"', "1_0", "0x1", "nan",
                     "-inf", "", " ", "#", '"5', "\xa07", "1e999", "٣"]
                ),
                min_size=2,
                max_size=4,
            ),
            max_size=4,
        ),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_random_cells(self, rows, newline, tmp_path_factory):
        lines = ["R,M,Y", "0,1,2", "1,2,3"] + [",".join(row) for row in rows]
        self.check(tmp_path_factory.mktemp("csv"), newline.join(lines) + newline)

    def test_vectorized_pass_used_for_clean_input(self):
        table = _fast_table(iter(["0,1.5,2\n", "1,2.5,3"]), 3)
        npt.assert_array_equal(table, [[0.0, 1.5, 2.0], [1.0, 2.5, 3.0]])
        assert _fast_table(iter(["0,1.5,2\n"]), 3).shape == (1, 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lines",
        [[], ["\n", "\r\n"], ["0,1,2\n", "\n", "1,2,3\n"], ["0,1,2\n", "1,2,3,4\n"], ["0,1,2,3\n"],
         ['0,"1\n', '",2\n'], ["0,1,inf\n"], ["0,1_0,2\n"]],
    )
    def test_vectorized_pass_declines(self, lines):
        assert _fast_table(iter(lines), 3) is None


class TestCsvRoundTrip:
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=2,
            max_size=12,
        )
    )
    def test_round_trip_is_bit_identical(self, values, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("csv")
        n = len(values)
        k = n // 2
        columns = {
            "R": np.array([0.0] * (n - k) + [1.0] * k),
            "M": np.asarray(values, dtype=np.float64),
            "Y": np.asarray(values[::-1], dtype=np.float64),
        }
        data = build_dataset(columns)
        path = str(tmp / "out.csv")
        write_dataset_csv(data, path)
        back = load_csv(path, data.roles)
        for name in columns:
            npt.assert_array_equal(
                back.column(name).view(np.uint64), data.column(name).view(np.uint64)
            )

    def test_negative_zero_survives(self, tmp_path):
        data = build_dataset({"R": [0, 1], "M": [-0.0, 1.0], "Y": [1.0, 2.0]})
        path = str(tmp_path / "z.csv")
        write_dataset_csv(data, path)
        back = load_csv(path, data.roles)
        assert np.signbit(back.column("M")[0])


def file_digest(path):
    """The SHA-256 that load_csv keys the file at path by."""
    return hashlib.sha256(tabular._cache_tag() + Path(path).read_bytes()).digest()


def cache_entry(cache_home, path):
    """Where load_csv keeps the table of the file at path."""
    name = hashlib.sha256(file_digest(path)).hexdigest()
    return cache_home / "dispdecomp" / f"{name}.npy"


def cache_entries(cache_home):
    directory = cache_home / "dispdecomp"
    return sorted(p.name for p in directory.iterdir()) if directory.exists() else []


def refuse_parse(*args):
    raise AssertionError("parsed a file whose table is cached")


def refuse_hash(*args):
    raise AssertionError("hashed a file that no cache entry can be made of")


def column_bits(data):
    return {name: col.view(np.uint64).tolist() for name, col in data.columns.items()}


class TestTableCache:
    """load_csv keeps each parsed table under the SHA-256 of the file's bytes."""

    def write(self, tmp_path, text, name="d.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_a_second_load_reads_the_stored_table_bit_for_bit(self, tmp_path, cache_home, monkeypatch):
        path = self.write(tmp_path, "R,M,Y\n0,-0.0,2.5e-300\n1,0.1,3\n")
        first = load_csv(path, minimal_roles())
        assert cache_entry(cache_home, path).is_file()
        monkeypatch.setattr(tabular, "_fast_table", refuse_parse)
        monkeypatch.setattr(tabular, "_load_csv_reference", refuse_parse)
        again = load_csv(path, minimal_roles())
        assert column_bits(again) == column_bits(first)
        assert list(again.columns) == ["R", "M", "Y"]

    def test_a_file_rewritten_with_its_size_and_mtime_kept_loads_the_new_values(self, tmp_path):
        path = self.write(tmp_path, "R,M,Y\n0,1.5,2\n1,2.5,3\n")
        before = os.stat(path)
        npt.assert_array_equal(load_csv(path, minimal_roles()).column("M"), [1.5, 2.5])
        self.write(tmp_path, "R,M,Y\n0,7.5,2\n1,8.5,3\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size
        npt.assert_array_equal(load_csv(path, minimal_roles()).column("M"), [7.5, 8.5])

    @staticmethod
    def damage(entry, how):
        if how == "truncated":
            entry.write_bytes(entry.read_bytes()[:-8])
        elif how == "wrong-width":
            np.save(entry, np.zeros((2, 4)))
        elif how == "pickled-object":
            np.save(entry, np.array([[{"R": 0}, 1, 2]], dtype=object), allow_pickle=True)
        elif how == "rows-beyond-the-file":
            # Read without the size check, this header asks for 24 TB.
            with open(entry, "wb") as fh:
                header = {"descr": "<f8", "fortran_order": False, "shape": (10**12, 3)}
                np.lib.format.write_array_header_1_0(fh, header)
                fh.write(bytes(48))
        elif how == "not-npy":
            entry.write_bytes(b"R,M,Y\n")
        elif how == "npy-format-2":
            # The same header and payload, in .npy format 2.0.
            with open(entry, "rb") as fh:
                np.lib.format.read_magic(fh)
                shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
                payload = fh.read()
            with open(entry, "wb") as fh:
                header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": fortran_order, "shape": shape}
                np.lib.format.write_array_header_2_0(fh, header)
                fh.write(payload)

    @pytest.mark.parametrize(
        "how", ["truncated", "wrong-width", "pickled-object", "rows-beyond-the-file", "not-npy", "npy-format-2"]
    )
    def test_a_damaged_entry_reads_as_a_miss_and_is_rewritten(self, tmp_path, cache_home, monkeypatch, how):
        path = self.write(tmp_path, "R,M,Y\n0,1.5,2\n1,2.5,3\n")
        first = load_csv(path, minimal_roles())
        entry = cache_entry(cache_home, path)
        self.damage(entry, how)
        assert column_bits(load_csv(path, minimal_roles())) == column_bits(first)
        monkeypatch.setattr(tabular, "_fast_table", refuse_parse)
        assert column_bits(load_csv(path, minimal_roles())) == column_bits(first)

    def test_a_failed_entry_write_leaves_no_file_and_the_next_load_stores_it(
        self, tmp_path, cache_home, monkeypatch
    ):
        path = self.write(tmp_path, "R,M,Y\n0,1.5,2\n1,2.5,3\n")
        expected = _outcome(_load_csv_reference, path, minimal_roles())

        def failing_keystream(data, digest):
            raise OSError("disk full")

        # The write fails after the entry's header.
        with monkeypatch.context() as patch:
            patch.setattr(tabular, "_keystream", failing_keystream)
            assert _outcome(load_csv, path, minimal_roles()) == expected
        # Neither the entry nor its temporary file is left.
        assert cache_entries(cache_home) == []
        assert _outcome(load_csv, path, minimal_roles()) == expected
        assert cache_entries(cache_home) == [cache_entry(cache_home, path).name]

    def test_an_entry_holds_no_value_of_the_table(self, tmp_path, cache_home):
        path = self.write(tmp_path, "R,M,Y\n0,1.5,2\n1,2.5,3\n0,1.5,2\n")
        table = np.array([[0.0, 1.5, 2.0], [1.0, 2.5, 3.0], [0.0, 1.5, 2.0]])
        load_csv(path, minimal_roles())
        stored = np.load(cache_entry(cache_home, path), allow_pickle=False)
        assert stored.shape == table.shape
        assert np.intersect1d(stored.view(np.uint64), table.view(np.uint64)).size == 0
        # Equal rows encrypt differently.
        assert stored[0].tobytes() != stored[2].tobytes()

    def test_an_unusable_cache_directory_changes_nothing(self, tmp_path, cache_home, monkeypatch):
        cache_home.mkdir()
        (cache_home / "dispdecomp").write_text("not a directory")
        path = self.write(tmp_path, "R,M,Y\n0,1.5,2\n1,2.5,3\n")
        expected = _outcome(_load_csv_reference, path, minimal_roles())
        # Nothing is hashed when no entry can be read or written.
        monkeypatch.setattr(tabular, "_cache_tag", refuse_hash)
        for _ in range(2):
            assert _outcome(load_csv, path, minimal_roles()) == expected
        assert (cache_home / "dispdecomp").read_text() == "not a directory"

    @pytest.mark.parametrize(
        "text",
        [
            "R,M,Y\n0,1_0,2\n1,2,3\n",
            "R,M,Y\n0,1,2\n1,2,abc\n",
            "R,M,Y\n0,1,2\n2,3,4\n1,5,6\n",
            "R,M,Y\n0,1,2\n",
            "R,M,Z\n0,1,2\n1,2,3\n",
            "R,M,Y\n",
        ],
        ids=["reference-parser", "bad-cell", "bad-group", "one-group", "bad-header", "no-rows"],
    )
    def test_tables_the_fast_pass_does_not_accept_are_not_stored(self, tmp_path, cache_home, text):
        path = self.write(tmp_path, text)
        expected = _outcome(_load_csv_reference, path, minimal_roles())
        for _ in range(2):
            assert _outcome(load_csv, path, minimal_roles()) == expected
        assert cache_entries(cache_home) == []

    @pytest.mark.parametrize("access", [0o777, 0o770, 0o705, "another-owner"], ids=["777", "770", "705", "another-owner"])
    def test_a_directory_others_can_write_or_read_is_not_used(self, tmp_path, cache_home, monkeypatch, access):
        path = self.write(tmp_path, "R,M,Y\n0,1.5,2\n1,2.5,3\n")
        load_csv(path, minimal_roles())
        # An entry planted under the file's key is read from a private directory.
        tabular._store_table(file_digest(path), np.array([[0.0, 7.5, 2.0], [1.0, 8.5, 3.0]]))
        npt.assert_array_equal(load_csv(path, minimal_roles()).column("M"), [7.5, 8.5])
        entry = cache_entry(cache_home, path)
        planted = entry.read_bytes()
        if access == "another-owner":
            uid = os.getuid()
            monkeypatch.setattr(tabular.os, "getuid", lambda: uid + 1)
        else:
            (cache_home / "dispdecomp").chmod(access)
        monkeypatch.setattr(tabular, "_cache_tag", refuse_hash)
        other = self.write(tmp_path, "R,M,Y\n0,4.5,2\n1,5.5,3\n", "other.csv")
        npt.assert_array_equal(load_csv(path, minimal_roles()).column("M"), [1.5, 2.5])
        npt.assert_array_equal(load_csv(other, minimal_roles()).column("M"), [4.5, 5.5])
        assert cache_entries(cache_home) == [entry.name]
        assert entry.read_bytes() == planted

    @pytest.mark.parametrize("module", [dispdecomp, np], ids=["dispdecomp", "numpy"])
    def test_an_entry_from_another_version_is_not_read(self, tmp_path, cache_home, monkeypatch, module):
        path = self.write(tmp_path, "R,M,Y\n0,1.5,2\n1,2.5,3\n")
        load_csv(path, minimal_roles())
        monkeypatch.setattr(module, "__version__", "0+another")
        monkeypatch.setattr(tabular, "_fast_table", refuse_parse)
        with pytest.raises(AssertionError, match="parsed a file"):
            load_csv(path, minimal_roles())

    def test_the_oldest_entries_are_evicted_past_the_budget(self, tmp_path, cache_home, monkeypatch):
        paths = [self.write(tmp_path, f"R,M,Y\n0,{i},2\n1,2,3\n", f"{i}.csv") for i in range(3)]
        entries = [cache_entry(cache_home, path) for path in paths]
        load_csv(paths[0], minimal_roles())
        monkeypatch.setattr(tabular, "_CACHE_BUDGET", 2 * entries[0].stat().st_size)
        now = time.time_ns()
        for age, path, entry in zip((30, 20), paths[:2], entries[:2]):
            load_csv(path, minimal_roles())
            os.utime(entry, ns=(now - age * 10**9, now - age * 10**9))
        load_csv(paths[2], minimal_roles())
        assert [entry.exists() for entry in entries] == [False, True, True]
        # A table larger than the whole budget is not stored, and evicts nothing.
        rows = "".join(f"{i % 2},{i},2\n" for i in range(40))
        big = self.write(tmp_path, "R,M,Y\n" + rows, "big.csv")
        load_csv(big, minimal_roles())
        assert not cache_entry(cache_home, big).exists()
        assert [entry.exists() for entry in entries] == [False, True, True]

    def test_the_directory_and_entries_are_private(self, tmp_path, cache_home):
        path = self.write(tmp_path, "R,M,Y\n0,1.5,2\n1,2.5,3\n")
        load_csv(path, minimal_roles())
        assert stat.S_IMODE((cache_home / "dispdecomp").stat().st_mode) == 0o700
        assert stat.S_IMODE(cache_entry(cache_home, path).stat().st_mode) == 0o600

    def test_a_warm_load_holds_the_table_not_the_file(self, tmp_path, monkeypatch):
        # Long cells make the file about three times the table's bytes, so a
        # load that read the whole file into memory would pass the bound.
        rng = np.random.default_rng(3)
        n, width = 20_000, 10
        values = rng.normal(size=(n, width - 1)) * 1e-5
        lines = [f"{i % 2}," + ",".join(f"{v:.17e}" for v in row) for i, row in enumerate(values.tolist())]
        names = ["R", "M", "Y"] + [f"C{j}" for j in range(width - 3)]
        path = self.write(tmp_path, ",".join(names) + "\n" + "\n".join(lines) + "\n")
        roles = minimal_roles()
        load_csv(path, roles)
        bound = 2.5 * n * width * 8
        assert os.stat(path).st_size > bound
        monkeypatch.setattr(tabular, "_fast_table", refuse_parse)
        tracemalloc.start()
        try:
            data = load_csv(path, roles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.n == n
        assert peak < bound

    def test_a_file_changed_between_hash_and_parse_is_stored_under_what_was_parsed(
        self, tmp_path, cache_home, monkeypatch
    ):
        old, new = "R,M,Y\n0,1.5,2\n1,2.5,3\n", "R,M,Y\n0,7.5,2\n1,8.5,3\n"
        path = self.write(tmp_path, old)
        lookup = tabular._cached_table

        def rewrite_after_lookup(*args):
            found = lookup(*args)
            self.write(tmp_path, new)
            return found

        monkeypatch.setattr(tabular, "_cached_table", rewrite_after_lookup)
        npt.assert_array_equal(load_csv(path, minimal_roles()).column("M"), [7.5, 8.5])
        monkeypatch.setattr(tabular, "_cached_table", lookup)
        assert [p.name for p in (cache_home / "dispdecomp").iterdir()] == [cache_entry(cache_home, path).name]
        self.write(tmp_path, old)
        npt.assert_array_equal(load_csv(path, minimal_roles()).column("M"), [1.5, 2.5])
